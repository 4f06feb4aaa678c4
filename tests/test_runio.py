"""A run written by runio.write_trajectory reads back as run() returned it."""

import numpy as np
import pytest

from monoac import ModelParams, SolverConfig, SolverError, cfl_limit, make_grid, run, steppers
from monoac.presets import make_initial
from monoac.runio import STEPS_COLUMNS, read_trajectory, write_trajectory

P1 = ModelParams(kappa=1.0)
ARRAYS = ("times", "diag", "res_l2sq", "obstacle_gap_min", "du_dt_l2", "step_min_increment")


def implicit_1d(_monkeypatch):
    g = make_grid(1, (-1, 1), 31)
    cfg = SolverConfig(scheme="implicit_obstacle", dt=0.05, t_end=1.0, snapshot_stride=10)
    return run(g, make_initial("abs_edge", g, P1), P1, cfg)


def implicit_2d(_monkeypatch):
    g = make_grid(2, ((0, 1), (0, 1)), (9, 7))
    u0 = make_initial("bump", g, P1, center=[0.5, 0.5], width=[0.3, 0.3], height=0.2)
    cfg = SolverConfig(scheme="implicit_obstacle", dt=0.05, t_end=0.5, snapshot_stride=5)
    return run(g, u0, P1, cfg)


def failed_explicit(monkeypatch):
    """The partial trajectory of a run whose state turns non-finite at step 10."""
    g = make_grid(1, (-1, 1), 31)
    dt = cfl_limit(g) / 2
    cfg = SolverConfig(scheme="explicit", dt=dt, t_end=40 * dt, snapshot_stride=7)
    real = steppers.residual_array
    calls = []

    def poisoned(grid, v, p):
        r = real(grid, v, p)
        calls.append(None)
        if len(calls) == 11:  # the residual of step 10
            r[..., 5] = np.inf
        return r

    monkeypatch.setattr(steppers, "residual_array", poisoned)
    with pytest.raises(SolverError) as info:
        run(g, make_initial("abs_edge", g, P1), P1, cfg)
    partial = info.value.trajectory
    assert partial.failure == {"step": 10, "message": "non-finite state"}
    return partial


@pytest.mark.parametrize("make", [implicit_1d, implicit_2d, failed_explicit])
def test_series_read_back_bitwise(tmp_path, monkeypatch, make):
    traj = make(monkeypatch)
    write_trajectory(traj, tmp_path)
    back = read_trajectory(tmp_path)
    for name in ARRAYS:
        a, b = getattr(traj, name), getattr(back, name)
        assert a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert back.failure == traj.failure
    for sa, sb in zip(traj.snapshots, back.snapshots, strict=True):
        assert sa.values.tobytes() == sb.values.tobytes()


def test_steps_file_layout(tmp_path):
    traj = implicit_1d(None)
    write_trajectory(traj, tmp_path)
    lines = (tmp_path / "steps.csv").read_text().splitlines()
    assert lines[0] == ",".join(STEPS_COLUMNS) == (
        "t,res_l2sq,obstacle_gap_min,du_dt_l2,step_min_increment")
    assert len(lines) == len((tmp_path / "diagnostics.csv").read_text().splitlines())
    assert lines[1].endswith(",0.0,0.0")
    # row k's step columns describe the step that ends at t_k
    row = lines[4].split(",")
    assert row == [repr(float(traj.times[3])), repr(float(traj.res_l2sq[3])),
                   repr(float(traj.obstacle_gap_min[3])), repr(float(traj.du_dt_l2[2])),
                   repr(float(traj.step_min_increment[2]))]


@pytest.mark.parametrize("edit", ["header", "time", "rows"])
def test_steps_file_must_match_diagnostics(tmp_path, edit):
    write_trajectory(implicit_1d(None), tmp_path)
    path = tmp_path / "steps.csv"
    lines = path.read_text().splitlines()
    if edit == "header":
        lines[0] = lines[0].replace("du_dt_l2", "rate")
    elif edit == "time":
        cols = lines[3].split(",")
        cols[0] = repr(float(cols[0]) + 1e-3)
        lines[3] = ",".join(cols)
    else:
        lines.pop()
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="steps.csv"):
        read_trajectory(tmp_path)
