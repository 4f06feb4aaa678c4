"""A run written by runio.write_trajectory reads back as run() returned it."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from monoac import (ModelParams, SolverConfig, SolverError, cfl_limit, grid, make_grid, run,
                    runio, steppers)
from monoac.presets import make_initial
from monoac.runio import STEPS_COLUMNS, read_trajectory, write_trajectory

P1 = ModelParams(kappa=1.0)
SRC_ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
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


@pytest.mark.parametrize("make", [implicit_1d, implicit_2d])
def test_loaded_snapshots_own_their_values(tmp_path, make):
    # each snapshot is a contiguous array of its own, not a column of the file's table
    write_trajectory(make(None), tmp_path)
    values = [s.values for s in read_trajectory(tmp_path).snapshots]
    for i, v in enumerate(values):
        owner = v
        while owner.base is not None:
            owner = owner.base
        assert v.flags.c_contiguous and owner.nbytes == v.nbytes
        assert not any(np.shares_memory(v, w) for w in values[:i])


def test_one_field_call_per_snapshot_file(tmp_path, monkeypatch):
    # the benchmark tracer times runio.write_field_csv and runio.read_field_csv, so every
    # snapshot file goes through those names once, repeated states included
    g = make_grid(1, (0, 1), 31)
    cfg = SolverConfig(scheme="implicit_obstacle", dt=0.02, t_end=1.0, snapshot_stride=1)
    traj = run(g, make_initial("bump", g, P1, center=0.5, width=0.25, height=0.2), P1, cfg)
    distinct = {s.values.tobytes() for s in traj.snapshots}
    assert len(distinct) < len(traj.snapshots)  # it stops moving mid-run
    calls = {"write": 0, "read": 0, "parse": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(runio, "write_field_csv", counted("write", runio.write_field_csv))
    monkeypatch.setattr(runio, "read_field_csv", counted("read", runio.read_field_csv))
    monkeypatch.setattr(grid, "parse_csv_rows", counted("parse", grid.parse_csv_rows))
    write_trajectory(traj, tmp_path)
    back = read_trajectory(tmp_path)
    files = sorted(tmp_path.glob("snapshot_*.csv"))
    assert calls["write"] == calls["read"] == len(files) == len(traj.snapshots)
    # a repeated state is written as the same text and parsed once
    assert len({f.read_bytes() for f in files}) == calls["parse"] == len(distinct)
    for a, b in zip(traj.snapshots, back.snapshots, strict=True):
        assert a.values.tobytes() == b.values.tobytes()


WRITE_PEAK = """
import sys
import numpy as np
from monoac import Field, ModelParams, SolverConfig, make_grid
from monoac.runio import write_trajectory
from monoac.steppers import Trajectory

def vm_hwm_mb():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM")) / 1024

n = 1 << 18
g = make_grid(1, (-1, 1), 15)
rng = np.random.default_rng(0)
u = Field(g, rng.random(g.n_nodes))
traj = Trajectory(
    grid=g, params=ModelParams(kappa=1.0), config=SolverConfig("explicit", 1.0, float(n)),
    u0=u, times=np.arange(n + 1.0), diag=rng.random((n + 1, 9)), res_l2sq=rng.random(n + 1),
    obstacle_gap_min=rng.random(n + 1), du_dt_l2=rng.random(n),
    step_min_increment=rng.random(n), inner_iterations=np.ones(n, dtype=int),
    snapshot_times=np.array([0.0, n]), snapshots=[u, u])
before = vm_hwm_mb()
write_trajectory(traj, sys.argv[1])
print(vm_hwm_mb() - before)
"""


def test_writing_long_series_holds_a_block_of_rows_not_the_tables(tmp_path):
    # 2^18 steps of 17-digit values: the two tables are about 75 MB of text
    proc = subprocess.run([sys.executable, "-c", WRITE_PEAK, str(tmp_path)], env=SRC_ENV,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rise_mb = float(proc.stdout)
    with open(tmp_path / "diagnostics.csv") as f:
        assert sum(1 for _ in f) == (1 << 18) + 2  # the header and every state's row
    assert rise_mb < 40, f"writing raised VmHWM by {rise_mb:.1f} MB"
    for path in tmp_path.iterdir():  # about 75 MB that pytest would otherwise keep
        path.unlink()
