import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from monoac import Field, ModelParams, SolverConfig, config, make_grid, run
from monoac.cli import main
from monoac.grid import read_field_csv, write_field_csv
from monoac.obstacle import KernelError
from monoac.presets import make_initial
from monoac.runio import load_state_field, read_trajectory, write_trajectory
from monoac.spectral import min_eig

REPO = Path(__file__).resolve().parents[1]


def run_python(code, cwd):
    """Run ``code`` in a fresh interpreter that imports monoac from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(REPO / "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_config(tmp_path, out="out", **overrides):
    doc = {
        "domain": {"dim": 1, "endpoints": [-1, 1], "n_interior": 63},
        "model": {"kappa": 1.0},
        "initial": {"preset": "abs_edge"},
        "solver": {"scheme": "implicit_obstacle", "dt": 0.02, "t_end": 2.0},
        "outputs": {"directory": str(tmp_path / out), "stride": 10},
    }
    doc.update(overrides)
    return doc


class TestRunCommand:
    def test_zero_preset_produces_zero_series(self, tmp_path):
        doc = run_config(tmp_path, initial={"preset": "zero"})
        code = main(["run", "--config", write_config(tmp_path, doc), "--quiet"])
        assert code == 0
        out = tmp_path / "out"
        lines = (out / "diagnostics.csv").read_text().splitlines()
        assert lines[0] == "t,E,phi,eta_l2,res_neg_l2sq,u_l2,u_l4,u_linf,h1"
        for line in lines[1:]:
            cols = [float(c) for c in line.split(",")]
            assert all(c == 0.0 for c in cols[1:])

    def test_abs_edge_full_artifact_set(self, tmp_path):
        doc = run_config(tmp_path)
        assert main(["run", "--config", write_config(tmp_path, doc), "--quiet"]) == 0
        out = tmp_path / "out"
        assert (out / "diagnostics.csv").exists()
        assert (out / "manifest.json").exists()
        snapshots = sorted(out.glob("snapshot_*.csv"))
        assert len(snapshots) == 11
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["n_steps"] == 100
        assert manifest["config"]["solver"]["dt"] == 0.02
        assert len(manifest["inner_iterations"]) == 100

    def test_malformed_json_exits_2_without_outputs(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path), "--quiet"]) == 2
        assert not (tmp_path / "out").exists()

    def test_unknown_key_rejected(self, tmp_path):
        doc = run_config(tmp_path)
        doc["solver"]["theta"] = 0.5
        assert main(["run", "--config", write_config(tmp_path, doc), "--quiet"]) == 2

    def test_solver_failure_exits_3_with_partial_outputs(self, tmp_path):
        doc = run_config(tmp_path)
        doc["solver"].update({"newton_tol": 1e-16, "newton_max_iter": 1,
                              "pgs_tol": 1e-16, "pgs_max_iter": 2})
        assert main(["run", "--config", write_config(tmp_path, doc), "--quiet"]) == 3
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["failure"] is not None

    def test_byte_identical_reruns(self, tmp_path):
        doc_a = run_config(tmp_path, out="a")
        doc_b = run_config(tmp_path, out="b")
        assert main(["run", "--config", write_config(tmp_path, doc_a, "a.json"), "--quiet"]) == 0
        assert main(["run", "--config", write_config(tmp_path, doc_b, "b.json"), "--quiet"]) == 0
        for name in ("diagnostics.csv", "steps.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for snap in sorted((tmp_path / "a").glob("snapshot_*.csv")):
            twin = tmp_path / "b" / snap.name
            assert snap.read_bytes() == twin.read_bytes()

    def test_pgs_budget_is_applied(self, tmp_path, capsys):
        doc = run_config(tmp_path)
        doc["solver"].update({"newton_max_iter": 1, "pgs_max_iter": 2})
        assert main(["run", "--config", write_config(tmp_path, doc), "--quiet"]) == 3
        stalled = re.search(r"stalled after (\d+) sweeps", capsys.readouterr().err)
        assert stalled is not None
        assert int(stalled.group(1)) <= 2

    def test_manifest_identical_across_reruns(self, tmp_path):
        path = write_config(tmp_path, run_config(tmp_path))
        for out in ("a", "b"):
            assert main(["run", "--config", path, "--out", str(tmp_path / out), "--quiet"]) == 0
        manifest_a = (tmp_path / "a" / "manifest.json").read_bytes()
        assert manifest_a == (tmp_path / "b" / "manifest.json").read_bytes()

    @pytest.mark.parametrize("stride", [10, None])
    def test_dt_not_a_number_exits_2(self, tmp_path, stride):
        doc = run_config(tmp_path)
        doc["solver"]["dt"] = "abc"
        if stride is None:
            del doc["outputs"]["stride"]
        assert main(["run", "--config", write_config(tmp_path, doc), "--quiet"]) == 2

    def test_stride_not_a_number_exits_2(self, tmp_path, capsys):
        doc = run_config(tmp_path)
        doc["outputs"]["stride"] = "ten"
        assert main(["run", "--config", write_config(tmp_path, doc), "--quiet"]) == 2
        assert "outputs: stride" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [2.5, True])
    def test_stride_not_an_integer_exits_2(self, tmp_path, capsys, value):
        doc = run_config(tmp_path)
        doc["outputs"]["stride"] = value
        assert main(["run", "--config", write_config(tmp_path, doc), "--quiet"]) == 2
        assert "outputs: stride" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scheme", ["implicit_obstacle", "yosida"])
    @pytest.mark.parametrize("key", ["newton_max_iter", "pgs_max_iter"])
    @pytest.mark.parametrize("value", [2.5, "abc", 0, -3, True])
    def test_iteration_budget_not_a_positive_integer_exits_2(self, tmp_path, capsys, scheme,
                                                             key, value):
        doc = run_config(tmp_path)
        if scheme == "yosida":  # within the stability bound of this grid
            doc["solver"] = {"scheme": "yosida", "dt": 2.0**-12, "t_end": 2.0**-8}
        doc["solver"][key] = value
        assert main(["run", "--config", write_config(tmp_path, doc), "--quiet"]) == 2
        assert f"solver: {key} must be an integer >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_integral_float_budgets_are_counts(self, tmp_path):
        doc = run_config(tmp_path)
        doc["solver"].update({"newton_max_iter": 50.0, "pgs_max_iter": 10.0})
        assert main(["run", "--config", write_config(tmp_path, doc), "--quiet"]) == 0
        solver = json.loads((tmp_path / "out" / "manifest.json").read_text())["solver"]
        assert (solver["newton_max_iter"], solver["pgs_max_iter"]) == (50, 10)
        assert type(solver["newton_max_iter"]) is type(solver["pgs_max_iter"]) is int

    @pytest.mark.parametrize("n_steps", [1000, 40])
    def test_default_stride_is_a_hundredth_of_the_steps(self, tmp_path, n_steps):
        doc = run_config(tmp_path, domain={"dim": 1, "endpoints": [-1, 1], "n_interior": 15})
        doc["solver"]["t_end"] = n_steps * doc["solver"]["dt"]
        del doc["outputs"]["stride"]
        assert main(["run", "--config", write_config(tmp_path, doc), "--quiet"]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        stride = max(1, n_steps // 100)
        assert manifest["solver"]["snapshot_stride"] == stride
        steps = [round(e["t"] / doc["solver"]["dt"]) for e in manifest["snapshots"]]
        assert steps == list(range(0, n_steps + 1, stride))

    def test_initial_csv_with_malformed_header_exits_2(self, tmp_path):
        path = malformed_header_csv(tmp_path, make_grid(1, (-1, 1), 63))
        doc = run_config(tmp_path, initial={"csv": str(path)})
        assert main(["run", "--config", write_config(tmp_path, doc), "--quiet"]) == 2

    def test_initial_csv_on_another_domain_exits_2(self, tmp_path, capsys):
        path = tmp_path / "unit.csv"
        write_field_csv(path, Field(make_grid(1, (0, 1), 63), np.full(63, -0.5)))
        doc = run_config(tmp_path, initial={"csv": str(path)})
        assert main(["run", "--config", write_config(tmp_path, doc), "--quiet"]) == 2
        assert str(path) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_out_flag_overrides_directory(self, tmp_path):
        doc = run_config(tmp_path, initial={"preset": "zero"})
        dest = tmp_path / "elsewhere"
        assert main(["run", "--config", write_config(tmp_path, doc),
                     "--out", str(dest), "--quiet"]) == 0
        assert (dest / "diagnostics.csv").exists()


class TestVerifyCommand:
    def test_supersolution_default_checks_pass(self, tmp_path):
        doc = run_config(
            tmp_path,
            domain={"dim": 1, "endpoints": [0, 1], "n_interior": 63},
            initial={"preset": "supersolution", "c": 1.0},
            checks=["monotone", "energy_decrease", "eta_monotone"],
        )
        assert main(["verify", "--config", write_config(tmp_path, doc), "--quiet"]) == 0
        report = json.loads((tmp_path / "out" / "verification.json").read_text())
        assert report["all_passed"] is True
        assert [c["name"] for c in report["checks"]] == [
            "monotone", "energy_decrease", "eta_monotone"]
        assert report["manifest_sha256"]

    def test_full_default_suite_on_abs_edge(self, tmp_path):
        doc = run_config(tmp_path)
        assert main(["verify", "--config", write_config(tmp_path, doc), "--quiet"]) == 0

    def test_corrupted_trajectory_exits_4(self, tmp_path):
        doc = run_config(tmp_path)
        assert main(["run", "--config", write_config(tmp_path, doc), "--quiet"]) == 0
        # push one stored node below its predecessor
        out = tmp_path / "out"
        snap = out / "snapshot_00000005.csv"
        lines = snap.read_text().splitlines()
        cols = lines[30].split(",")
        cols[-1] = repr(float(cols[-1]) - 5.0)
        lines[30] = ",".join(cols)
        snap.write_text("\n".join(lines) + "\n")
        verify_doc = {"trajectory": str(out), "checks": ["monotone"]}
        assert main(["verify", "--config", write_config(tmp_path, verify_doc, "v.json"),
                     "--quiet"]) == 4
        report = json.loads((out / "verification.json").read_text())
        assert report["all_passed"] is False

    def test_unreadable_trajectory_exits_4(self, tmp_path):
        verify_doc = {"trajectory": str(tmp_path / "missing")}
        out = tmp_path / "vout"
        assert main(["verify", "--config", write_config(tmp_path, verify_doc, "v.json"),
                     "--out", str(out), "--quiet"]) == 4

    def test_existing_trajectory_default_suite_passes(self, tmp_path):
        doc = run_config(tmp_path)
        assert main(["run", "--config", write_config(tmp_path, doc), "--quiet"]) == 0
        verify_doc = {"trajectory": str(tmp_path / "out")}
        assert main(["verify", "--config", write_config(tmp_path, verify_doc, "v.json"),
                     "--quiet"]) == 0

    def test_requested_unavailable_check_fails_honestly(self, tmp_path):
        # an unknown check, or a run without its per-step series, must fail
        # the verification with a report, not crash it
        doc = run_config(tmp_path)
        assert main(["run", "--config", write_config(tmp_path, doc), "--quiet"]) == 0
        out = tmp_path / "out"
        verify_doc = {"trajectory": str(out), "checks": ["no_such_check"]}
        assert main(["verify", "--config", write_config(tmp_path, verify_doc, "v.json"),
                     "--quiet"]) == 4
        [check] = json.loads((out / "verification.json").read_text())["checks"]
        assert check["name"] == "no_such_check" and check["passed"] is False
        assert "unknown check" in check["details"]["error"]

        (out / "steps.csv").unlink()
        verify_doc = {"trajectory": str(out), "checks": ["dissipation"]}
        assert main(["verify", "--config", write_config(tmp_path, verify_doc, "v.json"),
                     "--quiet"]) == 4
        [check] = json.loads((out / "verification.json").read_text())["checks"]
        assert check["name"] == "load_trajectory" and check["passed"] is False
        assert "steps.csv" in check["details"]["error"]

    def test_existing_trajectory_runs_rate_checks(self, tmp_path):
        doc = run_config(tmp_path)
        assert main(["run", "--config", write_config(tmp_path, doc), "--quiet"]) == 0
        verify_doc = {"trajectory": str(tmp_path / "out"),
                      "checks": ["energy_flux", "dissipation"]}
        assert main(["verify", "--config", write_config(tmp_path, verify_doc, "v.json"),
                     "--quiet"]) == 0

    def test_disk_and_memory_reports_agree(self, tmp_path):
        doc = run_config(tmp_path, out="mem")
        assert main(["verify", "--config", write_config(tmp_path, doc), "--quiet"]) == 0
        verify_doc = {"trajectory": str(tmp_path / "mem"),
                      "outputs": {"directory": str(tmp_path / "disk")}}
        assert main(["verify", "--config", write_config(tmp_path, verify_doc, "v.json"),
                     "--quiet"]) == 0
        mem = json.loads((tmp_path / "mem" / "verification.json").read_text())
        disk = json.loads((tmp_path / "disk" / "verification.json").read_text())
        assert "dissipation" in [c["name"] for c in mem["checks"]]
        assert disk == mem

    def test_dip_between_snapshots_fails_monotone_from_disk(self, tmp_path):
        g = make_grid(1, (-1, 1), 63)
        p = ModelParams(kappa=1.0)
        cfg = SolverConfig(scheme="implicit_obstacle", dt=0.02, t_end=2.0, snapshot_stride=10)
        traj = run(g, make_initial("abs_edge", g, p), p, cfg)
        traj.step_min_increment[13] = -1e-6  # the step to t_14, between stored t_10 and t_20
        out = tmp_path / "dip"
        write_trajectory(traj, out)
        verify_doc = {"trajectory": str(out), "checks": ["monotone", "range"]}
        assert main(["verify", "--config", write_config(tmp_path, verify_doc, "v.json"),
                     "--quiet"]) == 4
        monotone, range_ = json.loads((out / "verification.json").read_text())["checks"]
        assert monotone["passed"] is False
        assert monotone["worst_violation"] == 1e-6
        assert monotone["location"] == pytest.approx(float(traj.times[14]))
        assert range_["passed"] is True

    def test_failing_check_line_gives_its_location(self, tmp_path, capsys):
        g = make_grid(1, (-1, 1), 63)
        p = ModelParams(kappa=1.0)
        cfg = SolverConfig(scheme="implicit_obstacle", dt=0.02, t_end=2.0, snapshot_stride=10)
        traj = run(g, make_initial("abs_edge", g, p), p, cfg)
        traj.step_min_increment[13] = -1e-6  # the step to t_14 = 0.28
        out = tmp_path / "dip"
        write_trajectory(traj, out)
        verify_doc = {"trajectory": str(out), "checks": ["monotone", "range", "no_such_check"]}
        assert main(["verify", "--config", write_config(tmp_path, verify_doc, "v.json")]) == 4
        monotone, range_, unknown = capsys.readouterr().out.splitlines()
        assert monotone == "[FAIL] monotone: violation 1.000e-06 vs tol 1.000e-12 at t=0.28"
        assert re.fullmatch(r"\[PASS\] range: violation \S+ vs tol 1\.000e\+00", range_)
        assert unknown == "[FAIL] no_such_check: violation inf vs tol 0.000e+00"  # no location

    def test_solver_failure_exits_3_with_partial_outputs(self, tmp_path, capsys):
        doc = run_config(tmp_path, checks=["monotone"])
        doc["solver"].update({"newton_max_iter": 1, "pgs_max_iter": 2})
        assert main(["verify", "--config", write_config(tmp_path, doc), "--quiet"]) == 3
        assert "partial outputs kept" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["failure"] is not None
        assert (tmp_path / "out" / "snapshot_00000000.csv").exists()

    def test_roundtrip_preserves_diagnostics(self, tmp_path):
        doc = run_config(tmp_path)
        assert main(["run", "--config", write_config(tmp_path, doc), "--quiet"]) == 0
        back = read_trajectory(tmp_path / "out")
        assert back.n_steps() == 100
        assert back.params.kappa == 1.0
        assert back.config.dt == 0.02
        assert len(back.snapshots) == 11
        assert np.all(np.isfinite(back.series("E")))


class TestEigenCommand:
    def test_zero_potential_matches_stencil_eigenvalue(self, tmp_path):
        doc = {
            "domain": {"dim": 1, "endpoints": [0, 1], "n_interior": 127},
            "potential": {"type": "zero"},
            "tol": 1e-10,
            "outputs": {"directory": str(tmp_path / "eig")},
        }
        assert main(["eigen", "--config", write_config(tmp_path, doc), "--quiet"]) == 0
        result = json.loads((tmp_path / "eig" / "eigen.json").read_text())
        h = 1.0 / 128.0
        exact = (2.0 / h**2) * (1.0 - np.cos(np.pi * h))
        assert abs(result["lambda_min"] - exact) <= 1e-8 * exact
        field = read_field_csv(tmp_path / "eig" / "eigenfield.csv")
        assert np.all(field.values >= -1e-12)

    @pytest.mark.parametrize("key,value", [("tol", "tight"), ("max_iter", "many")])
    def test_number_not_a_number_exits_2(self, tmp_path, capsys, key, value):
        doc = {"domain": {"dim": 1, "endpoints": [0, 1], "n_interior": 15},
               "potential": {"type": "zero"}, key: value}
        assert main(["eigen", "--config", write_config(tmp_path, doc), "--quiet"]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("problem", ["missing", "wrong_n"])
    def test_csv_potential_unreadable_exits_2(self, tmp_path, capsys, problem):
        path = tmp_path / "V.csv"
        if problem == "wrong_n":
            write_field_csv(path, Field(make_grid(1, (0, 1), 14), np.ones(14)))
        doc = {"domain": {"dim": 1, "endpoints": [0, 1], "n_interior": 15},
               "potential": {"type": "csv", "path": str(path)}}
        assert main(["eigen", "--config", write_config(tmp_path, doc), "--quiet"]) == 2
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("scale", [None, 0.5])
    def test_scaled_square_potential_is_scale_times_initial_squared(self, tmp_path, capsys,
                                                                    scale):
        potential = {"type": "scaled_square", "initial": {"preset": "abs_edge"}}
        if scale is not None:
            potential["scale"] = scale
        doc = {"domain": dict(D15), "potential": potential}
        assert main(["eigen", "--config", write_config(tmp_path, doc), "--quiet"]) == 0
        g = make_grid(1, (-1, 1), 15)
        u0 = make_initial("abs_edge", g, ModelParams(kappa=1.0)).values
        V = Field(g, (3.0 if scale is None else scale) * u0**2)
        assert float(capsys.readouterr().out) == min_eig(g, V).lambda_min

    def test_failure_exits_5(self, tmp_path):
        doc = {
            "domain": {"dim": 1, "endpoints": [0, 1], "n_interior": 31},
            "potential": {"type": "zero"},
            "tol": 1e-12,
            "max_iter": 1,
        }
        assert main(["eigen", "--config", write_config(tmp_path, doc), "--quiet"]) == 5


class TestEquilibriumCommand:
    def test_abs_edge_long_run_polish(self, tmp_path):
        doc = {
            "domain": {"dim": 1, "endpoints": [-1, 1], "n_interior": 63},
            "model": {"kappa": 1.0},
            "obstacle": {"preset": "abs_edge"},
            "warm_start": {"run": {"scheme": "implicit_obstacle", "dt": 0.05,
                                   "t_end": 40.0}},
            "tol": 1e-6,
            "outputs": {"directory": str(tmp_path / "eq")},
        }
        assert main(["equilibrium", "--config", write_config(tmp_path, doc), "--quiet"]) == 0
        report = json.loads((tmp_path / "eq" / "equilibrium.json").read_text())
        assert all(v <= 1e-6 for v in report["complementarity"].values())
        assert (tmp_path / "eq" / "equilibrium.csv").exists()

    def test_trajectory_warm_start_reads_only_the_final_snapshot(self, tmp_path):
        run_doc = run_config(tmp_path, out="run")
        assert main(["run", "--config", write_config(tmp_path, run_doc, "run.json"),
                     "--quiet"]) == 0
        snapshots = sorted((tmp_path / "run").glob("snapshot_*.csv"))
        for snap in snapshots[:-1]:
            snap.unlink()
        (tmp_path / "run" / "diagnostics.csv").unlink()
        doc = {
            "domain": run_doc["domain"], "model": {"kappa": 1.0},
            "obstacle": {"preset": "abs_edge"},
            "warm_start": {"trajectory": str(tmp_path / "run")},
            "tol": 1e-6,
            "outputs": {"directory": str(tmp_path / "eq")},
        }
        assert main(["equilibrium", "--config", write_config(tmp_path, doc), "--quiet"]) == 0
        report = json.loads((tmp_path / "eq" / "equilibrium.json").read_text())
        warm = read_field_csv(snapshots[-1])
        eq = read_field_csv(tmp_path / "eq" / "equilibrium.csv")
        assert report["distance_from_warm_start_inf"] == np.max(np.abs(eq.values - warm.values))

    def test_bad_warm_start_exits_6(self, tmp_path):
        doc = {
            "domain": {"dim": 1, "endpoints": [0, 1], "n_interior": 31},
            "model": {"kappa": 1.0},
            "obstacle": {"preset": "supersolution", "c": 1.0},
            "warm_start": {"run": {"scheme": "implicit_obstacle", "dt": 0.05,
                                   "t_end": 0.5}},
        }
        # warm start from the supersolution itself is fine; break it with a csv below the obstacle
        from monoac import Field, make_grid, write_field_csv
        g = make_grid(1, (0, 1), 31)
        bad = Field(g, -np.ones(31))
        write_field_csv(tmp_path / "bad.csv", bad)
        doc["warm_start"] = {"csv": str(tmp_path / "bad.csv")}
        assert main(["equilibrium", "--config", write_config(tmp_path, doc), "--quiet"]) == 6


    def test_csv_warm_start_with_malformed_header_exits_6(self, tmp_path):
        g = make_grid(1, (0, 1), 31)
        doc = {
            "domain": {"dim": 1, "endpoints": [0, 1], "n_interior": 31},
            "model": {"kappa": 1.0},
            "obstacle": {"preset": "supersolution", "c": 1.0},
            "warm_start": {"csv": str(malformed_header_csv(tmp_path, g))},
        }
        assert main(["equilibrium", "--config", write_config(tmp_path, doc), "--quiet"]) == 6

    def test_csv_warm_start_on_another_domain_exits_6(self, tmp_path, capsys):
        path = tmp_path / "wide.csv"
        write_field_csv(path, Field(make_grid(1, (-5, 5), 31), np.ones(31)))
        doc = {
            "domain": {"dim": 1, "endpoints": [0, 1], "n_interior": 31},
            "model": {"kappa": 1.0},
            "obstacle": {"preset": "supersolution", "c": 1.0},
            "warm_start": {"csv": str(path)},
        }
        assert main(["equilibrium", "--config", write_config(tmp_path, doc), "--quiet"]) == 6
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("domain", [{"n_interior": 63}, {"endpoints": [-2, 2]}])
    def test_trajectory_warm_start_on_another_domain_exits_6(self, tmp_path, capsys, domain):
        run_doc = run_config(tmp_path, out="run",
                             domain={"dim": 1, "endpoints": [-1, 1], "n_interior": 31})
        assert main(["run", "--config", write_config(tmp_path, run_doc, "run.json"),
                     "--quiet"]) == 0
        doc = {
            "domain": {**run_doc["domain"], **domain},
            "model": {"kappa": 1.0},
            "obstacle": {"preset": "abs_edge"},
            "warm_start": {"trajectory": str(tmp_path / "run")},
            "outputs": {"directory": str(tmp_path / "eq")},
        }
        assert main(["equilibrium", "--config", write_config(tmp_path, doc), "--quiet"]) == 6
        assert str(tmp_path / "run") in capsys.readouterr().err
        assert not (tmp_path / "eq").exists()

    @pytest.mark.parametrize("polish", ["raises", "misses_tol"])
    def test_failed_polish_exits_6_writing_nothing(self, tmp_path, capsys, monkeypatch, polish):
        def solve_active_set(prob, u, tol, pgs_tol):
            if polish == "raises":
                raise KernelError("no active set verifies KKT")
            return u, Field(u.grid, np.zeros(u.grid.n_nodes)), 0  # the unpolished warm start

        monkeypatch.setattr("monoac.obstacle.solve_active_set", solve_active_set)
        doc = {"domain": dict(D15), "model": {"kappa": 1.0}, "obstacle": {"preset": "abs_edge"},
               "warm_start": {"run": dict(SOLVER)},
               "outputs": {"directory": str(tmp_path / "eq")}}
        assert main(["equilibrium", "--config", write_config(tmp_path, doc), "--quiet"]) == 6
        err = capsys.readouterr().err
        assert "polish " + ("diverged" if polish == "raises" else "stalled") in err
        assert not (tmp_path / "eq").exists()

    def test_run_warm_start_without_t_end_exits_2(self, tmp_path):
        doc = {
            "domain": {"dim": 1, "endpoints": [0, 1], "n_interior": 31},
            "model": {"kappa": 1.0},
            "obstacle": {"preset": "supersolution", "c": 1.0},
            "warm_start": {"run": {"scheme": "implicit_obstacle", "dt": 0.05}},
        }
        assert main(["equilibrium", "--config", write_config(tmp_path, doc), "--quiet"]) == 2


    def test_run_warm_start_stride_not_a_number_exits_2(self, tmp_path, capsys):
        doc = {
            "domain": {"dim": 1, "endpoints": [0, 1], "n_interior": 31},
            "model": {"kappa": 1.0},
            "obstacle": {"preset": "supersolution", "c": 1.0},
            "warm_start": {"run": {"scheme": "implicit_obstacle", "dt": 0.05, "t_end": 0.5,
                                   "snapshot_stride": "abc"}},
        }
        assert main(["equilibrium", "--config", write_config(tmp_path, doc), "--quiet"]) == 2
        assert "snapshot_stride" in capsys.readouterr().err

    def test_tol_not_a_number_exits_2(self, tmp_path, capsys):
        doc = {
            "domain": {"dim": 1, "endpoints": [0, 1], "n_interior": 31},
            "model": {"kappa": 1.0},
            "obstacle": {"preset": "supersolution", "c": 1.0},
            "warm_start": {"run": {"scheme": "implicit_obstacle", "dt": 0.05, "t_end": 0.5}},
            "tol": "loose",
        }
        assert main(["equilibrium", "--config", write_config(tmp_path, doc), "--quiet"]) == 2
        assert "tol" in capsys.readouterr().err


def malformed_header_csv(tmp_path, g):
    """A field file on g whose grid header lacks the node count."""
    path = tmp_path / "no_n.csv"
    write_field_csv(path, make_initial("zero", g, ModelParams(kappa=1.0)))
    lines = path.read_text().splitlines()
    lines[0] = f"# grid dim=1 h={g.h[0]!r}"
    path.write_text("\n".join(lines) + "\n")
    return path


def perfbench_module(name):
    """The benchmark's module perfbench/<name>.py, loaded by file path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  REPO / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def perfbench_gates():
    """The benchmark's gates module, which parses what the sweep commands print."""
    return perfbench_module("gates")


@pytest.mark.parametrize("seed", [7, 61])
def test_benchmark_configs_parse_without_stepping(tmp_path, seed):
    workloads = perfbench_module("workloads")
    parsed = set()
    for workload in workloads.WORKLOADS:
        for cmd in workloads.generate(workload, seed, str(tmp_path / workload))["commands"]:
            doc = config.load_json(cmd["argv"][2])
            if cmd["name"] == "run":
                config.parse_run_config(doc)
            elif cmd["name"] == "eigen":
                g = config.parse_domain(doc["domain"])
                config.parse_potential(doc["potential"], g, config.parse_model(doc["model"]))
            elif cmd["name"] == "sweep":
                g, p = config.parse_domain(doc["domain"]), config.parse_model(doc["model"])
                if doc["kind"] == "yosida_lambda":
                    lambdas, base, ref = config.yosida_sections(doc)
                    sections = [ref] + [{**base, "yosida_lambda": lam} for lam in lambdas]
                else:
                    sections = [doc["solver"]]
                for section in sections:
                    config.parse_solver(section, g, p)
            else:
                continue
            parsed.add((workload, cmd["name"], doc.get("kind")))
    assert parsed == {("sweeps", "sweep", "preset_family"), ("sweeps", "sweep", "yosida_lambda"),
                      ("implicit_2d", "eigen", None), ("implicit_2d", "run", None),
                      ("run_verify_io", "run", None)}


def yosida_sweep_doc():
    dt = (1.0 / 32.0) ** 2 / 4.0
    return {
        "kind": "yosida_lambda",
        "domain": {"dim": 1, "endpoints": [0, 1], "n_interior": 31},
        "model": {"kappa": 1.0},
        "initial": {"preset": "bump", "center": 0.5, "width": 0.3, "height": 0.4},
        "base_solver": {"dt": dt, "t_end": 64 * dt, "snapshot_stride": 16},
        "reference_solver": {"dt": 16 * dt, "t_end": 64 * dt, "snapshot_stride": 1},
        "lambdas": [1e-1, 1e-2, 1e-3],
    }


class TestSweepCommand:
    def test_yosida_lambda_sweep(self, tmp_path):
        dt = (1.0 / 32.0) ** 2 / 4.0
        doc = {
            "kind": "yosida_lambda",
            "domain": {"dim": 1, "endpoints": [0, 1], "n_interior": 31},
            "model": {"kappa": 1.0},
            "initial": {"preset": "bump", "center": 0.5, "width": 0.3, "height": 0.4},
            "base_solver": {"dt": dt, "t_end": 2048 * dt, "snapshot_stride": 512},
            "reference_solver": {"dt": 64 * dt, "t_end": 2048 * dt, "snapshot_stride": 8},
            "lambdas": [1e-1, 1e-2, 1e-3],
            "outputs": {"directory": str(tmp_path / "sweep")},
        }
        assert main(["sweep", "--config", write_config(tmp_path, doc), "--quiet"]) == 0
        agg = json.loads((tmp_path / "sweep" / "sweep.json").read_text())
        assert agg["monotone_decreasing"] is True
        e = agg["errors"]
        assert e[0] > e[1] > e[2]
        # member directories carry full run artifacts
        member = read_trajectory(tmp_path / "sweep" / "lambda_0.1")
        assert member.n_steps() == 2048

    def test_preset_family_absorbing(self, tmp_path):
        doc = {
            "kind": "preset_family",
            "domain": {"dim": 1, "endpoints": [-1, 1], "n_interior": 63},
            "model": {"kappa": 1.0},
            "presets": [{"preset": "abs_edge"}, {"preset": "zero"},
                        {"preset": "neg_const"},
                        {"preset": "bump", "center": 0.0, "width": 0.5, "height": 0.3}],
            "solver": {"scheme": "implicit_obstacle", "dt": 0.05, "t_end": 10.0,
                       "snapshot_stride": 50},
            "outputs": {"directory": str(tmp_path / "family")},
        }
        assert main(["sweep", "--config", write_config(tmp_path, doc), "--quiet"]) == 0
        agg = json.loads((tmp_path / "family" / "sweep.json").read_text())
        assert agg["absorbing"]["passed"] is True
        assert all(np.isfinite(t) for t in agg["absorbing"]["details"]["entry_times"])

    def test_member_failure_exits_7(self, tmp_path):
        dt = (1.0 / 32.0) ** 2 / 4.0
        doc = {
            "kind": "yosida_lambda",
            "domain": {"dim": 1, "endpoints": [0, 1], "n_interior": 31},
            "model": {"kappa": 1.0},
            "initial": {"preset": "bump", "center": 0.5, "width": 0.3, "height": 0.4},
            "base_solver": {"dt": dt, "t_end": 256 * dt, "snapshot_stride": 64,
                            "newton_tol": 1e-16, "newton_max_iter": 1},
            "reference_solver": {"dt": 64 * dt, "t_end": 256 * dt, "snapshot_stride": 1},
            "lambdas": [1e-1],
        }
        assert main(["sweep", "--config", write_config(tmp_path, doc), "--quiet"]) == 7

    @pytest.mark.parametrize("command", ["yosida", "family"])
    def test_member_failure_with_outputs_exits_7_writing_nothing(self, tmp_path, capsys,
                                                                 command):
        doc = refusal_doc(command, tmp_path)
        doc["base_solver" if command == "yosida" else "solver"].update(
            {"newton_tol": 1e-16, "newton_max_iter": 1, "pgs_tol": 1e-16, "pgs_max_iter": 2})
        doc["outputs"] = {"directory": str(tmp_path / "sweep")}
        assert main(["sweep", "--config", write_config(tmp_path, doc), "--quiet"]) == 7
        assert "sweep member failure" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_yosida_sweep_without_common_snapshot_times_exits_2(self, tmp_path, capsys,
                                                                    monkeypatch):
        # the members snapshot at t = 1/16 only, the reference at 1/32 and 3/64
        doc = yosida_sweep_doc()
        doc["domain"]["n_interior"] = 15
        doc["base_solver"] = {"dt": 2.0**-10, "t_end": 0.0625, "snapshot_stride": 64}
        doc["reference_solver"] = {"dt": 2.0**-7, "t_end": 0.046875, "snapshot_stride": 4}
        doc["outputs"] = {"directory": str(tmp_path / "sweep")}

        def no_stepping(*args, **kwargs):
            raise AssertionError("the sweep stepped before refusing its config")

        monkeypatch.setattr("monoac.cli.run", no_stepping)
        assert main(["sweep", "--config", write_config(tmp_path, doc), "--quiet"]) == 2
        assert "share no snapshot time" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("case", ["increasing_lambdas", "explicit_members",
                                      "disjoint_times"])
    def test_yosida_sweep_refusals_exit_2_before_stepping(self, tmp_path, capsys, monkeypatch,
                                                          case):
        doc = yosida_sweep_doc()
        doc["outputs"] = {"directory": str(tmp_path / "sweep")}
        if case == "increasing_lambdas":
            doc["lambdas"] = [1e-3, 1e-2]
        elif case == "explicit_members":
            doc["base_solver"]["scheme"] = "explicit"
        else:  # the members snapshot at t = 1/16 only, the reference at 1/32 and 3/64
            doc["domain"]["n_interior"] = 15
            doc["base_solver"] = {"dt": 2.0**-10, "t_end": 0.0625, "snapshot_stride": 64}
            doc["reference_solver"] = {"dt": 2.0**-7, "t_end": 0.046875, "snapshot_stride": 4}

        def no_stepping(*args, **kwargs):
            raise AssertionError("the sweep stepped before refusing its config")

        monkeypatch.setattr("monoac.diagnostics.run", no_stepping)
        monkeypatch.setattr("monoac.cli.run", no_stepping)
        assert main(["sweep", "--config", write_config(tmp_path, doc), "--quiet"]) == 2
        assert "config error: sweep:" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_yosida_sweep_equal_errors_exit_4(self, tmp_path, monkeypatch):
        # equal nonzero errors do not shrink with lambda: the one rule fails them
        monkeypatch.setattr("monoac.diagnostics.snapshot_error", lambda traj, ref: (0.5, 1))
        doc = yosida_sweep_doc()
        doc["outputs"] = {"directory": str(tmp_path / "sweep")}
        assert main(["sweep", "--config", write_config(tmp_path, doc), "--quiet"]) == 4
        agg = json.loads((tmp_path / "sweep" / "sweep.json").read_text())
        assert agg["errors"] == [0.5, 0.5, 0.5]
        assert agg["monotone_decreasing"] is False

    def test_yosida_sweep_prints_the_errors_line_the_benchmark_parses(self, tmp_path, capsys):
        doc = yosida_sweep_doc()
        doc["outputs"] = {"directory": str(tmp_path / "sweep")}
        assert main(["sweep", "--config", write_config(tmp_path, doc)]) == 0
        out = capsys.readouterr().out
        errors = json.loads((tmp_path / "sweep" / "sweep.json").read_text())["errors"]
        assert f"errors by lambda: {{0.1: {errors[0]!r}, 0.01: {errors[1]!r}, " \
               f"0.001: {errors[2]!r}}}\n" in out
        ok, detail = perfbench_gates()._yosida_errors(
            {"commands": [{"name": "sweep", "stdout": out}]}, None)
        assert ok, detail
        assert detail == f"errors {errors}"

    def test_family_sweep_prints_the_entry_times_line_the_benchmark_parses(self, tmp_path,
                                                                           capsys):
        doc = {
            "kind": "preset_family",
            "domain": {"dim": 1, "endpoints": [-1, 1], "n_interior": 31},
            "model": {"kappa": 1.0},
            "presets": [{"preset": "abs_edge"}, {"preset": "zero"}],
            "solver": {"scheme": "implicit_obstacle", "dt": 0.05, "t_end": 5.0,
                       "snapshot_stride": 50},
            "outputs": {"directory": str(tmp_path / "family")},
        }
        assert main(["sweep", "--config", write_config(tmp_path, doc)]) == 0
        out = capsys.readouterr().out
        agg = json.loads((tmp_path / "family" / "sweep.json").read_text())
        times = agg["absorbing"]["details"]["entry_times"]
        assert len(times) == 2
        assert f"absorbing entry times: [{times[0]!r}, {times[1]!r}]\n" in out
        ok, detail = perfbench_gates()._absorbing(
            {"commands": [{"name": "sweep", "stdout": out}]}, None)
        assert ok, detail
        assert detail == f"entry times {times}"

    @pytest.mark.parametrize("section,key,value", [
        ("base_solver", "snapshot_stride", "x"),
        ("reference_solver", "snapshot_stride", "x"),
        (None, "lambdas", [0.1, "x"]),
        (None, "lambdas", 0.1),
        (None, "lambdas", []),
    ], ids=["base_solver_stride", "reference_solver_stride", "lambdas_entry", "lambdas_scalar",
            "lambdas_empty"])
    def test_yosida_sweep_malformed_numbers_exit_2(self, tmp_path, capsys, section, key,
                                                      value):
        doc = yosida_sweep_doc()
        (doc if section is None else doc[section])[key] = value
        assert main(["sweep", "--config", write_config(tmp_path, doc), "--quiet"]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["snapshot_stride", "margin"])
    def test_family_sweep_number_not_a_number_exits_2(self, tmp_path, capsys, key):
        doc = {
            "kind": "preset_family",
            "domain": {"dim": 1, "endpoints": [-1, 1], "n_interior": 15},
            "model": {"kappa": 1.0},
            "presets": [{"preset": "zero"}, {"preset": "abs_edge"}],
            "solver": {"scheme": "implicit_obstacle", "dt": 0.05, "t_end": 0.5},
        }
        (doc["solver"] if key == "snapshot_stride" else doc)[key] = "x"
        assert main(["sweep", "--config", write_config(tmp_path, doc), "--quiet"]) == 2
        assert key in capsys.readouterr().err

    def test_unknown_kind_exits_2(self, tmp_path):
        assert main(["sweep", "--config",
                     write_config(tmp_path, {"kind": "grid_refinement"}), "--quiet"]) == 2
        assert main(["sweep", "--config",
                     write_config(tmp_path, {"kind": ["preset_family"]}), "--quiet"]) == 2


D15 = {"dim": 1, "endpoints": [-1, 1], "n_interior": 15}
SOLVER = {"scheme": "implicit_obstacle", "dt": 0.05, "t_end": 0.5}


def refusal_doc(command, tmp_path):
    """A valid config of each command on a 15-node domain, for one entry to break."""
    if command == "eigen":
        return {"domain": dict(D15), "potential": {"type": "zero"}}
    if command == "verify_trajectory":
        return {"trajectory": str(tmp_path / "missing")}
    if command == "family":
        return {"kind": "preset_family", "domain": dict(D15), "model": {"kappa": 1.0},
                "presets": [{"preset": "zero"}, {"preset": "abs_edge"}], "solver": dict(SOLVER)}
    if command == "yosida":
        doc = yosida_sweep_doc()
        doc["domain"]["n_interior"] = 15
        return doc
    if command == "equilibrium":
        return {"domain": dict(D15), "model": {"kappa": 1.0}, "obstacle": {"preset": "abs_edge"},
                "warm_start": {"run": dict(SOLVER)}}
    doc = run_config(tmp_path, domain=dict(D15))  # "run" and "verify"
    doc["solver"] = dict(SOLVER)
    return doc


def _set(*path_and_value):
    """An edit setting doc[path...] = value."""
    *path, key, value = path_and_value

    def edit(doc):
        for k in path:
            doc = doc[k]
        doc[key] = value
    return edit


# (command, edit, what stderr must name); each entry used to traceback, pass or exit non-2
REFUSALS = {
    "constant_value_string": ("eigen", _set("potential", {"type": "constant", "value": "abc"}),
                              "potential: value"),
    "constant_value_list": ("eigen", _set("potential", {"type": "constant", "value": [1, 2]}),
                            "potential: value"),
    "scaled_square_scale": ("eigen", _set("potential", {"type": "scaled_square", "scale": "abc",
                                                        "initial": {"preset": "abs_edge"}}),
                            "potential: scale"),
    "eigen_outputs_string": ("eigen", _set("outputs", "out"), "outputs"),
    "verify_outputs_string": ("verify_trajectory", _set("outputs", "out"), "outputs"),
    "family_solver_list": ("family", _set("solver", [1]), "solver"),
    "yosida_base_solver_string": ("yosida", _set("base_solver", "abc"), "base_solver"),
    "bump_height": ("run", _set("initial", {"preset": "bump", "height": "abc"}),
                    "initial: height"),
    "eigenfunction_c": ("run", _set("initial", {"preset": "eigenfunction", "c": "abc"}),
                        "initial: c"),
    "run_directory_number": ("run", _set("outputs", "directory", 5), "outputs: directory"),
    "check_tolerance": ("verify", _set("checks", [{"name": "monotone", "tolerance": "abc"}]),
                        "checks entry: tolerance"),
    "check_tolerance_zero": ("verify", _set("checks", [{"name": "range", "tolerance": 0}]),
                             "checks entry: tolerance"),
    "check_tolerance_negative": ("verify", _set("checks", [{"name": "range", "tolerance": -1}]),
                                 "checks entry: tolerance"),
    "check_name_number": ("verify", _set("checks", [{"name": 5}]), "checks entry: name"),
    "outputs_typo": ("eigen", _set("outputs", {"directroy": "eig"}), "directroy"),
    "family_stride_zero": ("family", _set("solver", "snapshot_stride", 0), "snapshot_stride"),
    "warm_run_stride_zero": ("equilibrium", _set("warm_start", "run", "snapshot_stride", 0),
                             "warm_start: run: snapshot_stride"),
    "n_interior_fraction": ("run", _set("domain", "n_interior", 15.5), "n_interior"),
    "n_interior_bool": ("run", _set("domain", "n_interior", True), "n_interior"),
    "kappa_bool": ("run", _set("model", "kappa", True), "kappa"),
    "potential_type_list": ("eigen", _set("potential", {"type": ["zero"]}), "potential"),
    "zero_potential_value": ("eigen", _set("potential", {"type": "zero", "value": 1.0}),
                             "value"),
    "warm_csv_number": ("equilibrium", _set("warm_start", {"csv": 5}), "warm_start: csv"),
    "warm_run_string": ("equilibrium", _set("warm_start", {"run": "abc"}), "warm_start: run"),
    "warm_two_sources": ("equilibrium", _set("warm_start", "csv", "warm.csv"), "warm_start"),
    "trajectory_empty": ("verify_trajectory", _set("trajectory", ""), "trajectory"),
    "initial_csv_empty": ("run", _set("initial", {"csv": ""}), "initial: csv"),
    "potential_path_empty": ("eigen", _set("potential", {"type": "csv", "path": ""}),
                             "potential: path"),
    "warm_trajectory_empty": ("equilibrium", _set("warm_start", {"trajectory": ""}),
                              "warm_start: trajectory"),
    "dim_bool": ("run", _set("domain", "dim", True), "domain: dim"),
    "endpoint_string": ("run", _set("domain", "endpoints", [-1, "abc"]), "domain: endpoints"),
    "endpoint_2d_bool": ("run", _set("domain", {"dim": 2, "endpoints": [[-1, 1], [0, True]],
                                                "n_interior": [5, 5]}), "domain: endpoints"),
    "dt_bool": ("run", _set("solver", "dt", True), "solver: dt"),
    "dt_string": ("run", _set("solver", "dt", "abc"), "solver: dt"),
    "t_end_bool": ("run", _set("solver", "t_end", True), "solver: t_end"),
    "t_end_below_one_step": ("run", _set("solver", "t_end", 1e-10), "solver: t_end"),
    "newton_tol_string": ("run", _set("solver", "newton_tol", "abc"), "solver: newton_tol"),
    "pgs_tol_string": ("run", _set("solver", "pgs_tol", "abc"), "solver: pgs_tol"),
    "yosida_lambda_bool": ("family", _set("solver", "yosida_lambda", True),
                           "solver: yosida_lambda"),
    "warm_run_dt_string": ("equilibrium", _set("warm_start", "run", "dt", "abc"),
                           "warm_start: run: dt"),
    "presets_number": ("family", _set("presets", 5), "presets"),
    "presets_empty": ("family", _set("presets", []), "presets"),
    "margin_negative": ("family", _set("margin", -1000), "margin"),
    "margin_nan": ("family", _set("margin", "nan"), "margin"),
    "eigen_max_iter_zero": ("eigen", _set("max_iter", 0), "max_iter"),
    "eigen_tol_negative": ("eigen", _set("tol", -1), "tol"),
    "equilibrium_tol_negative": ("equilibrium", _set("tol", -1), "tol"),
    "equilibrium_tol_nan": ("equilibrium", _set("tol", "nan"), "tol"),
    "run_stride_zero": ("run", _set("outputs", "stride", 0), "outputs: stride"),
    "run_stride_negative": ("run", _set("outputs", "stride", -1), "outputs: stride"),
    "endpoints_reversed": ("run", _set("domain", "endpoints", [1, -1]), "domain: endpoints"),
    "n_interior_zero": ("run", _set("domain", "n_interior", 0), "domain: n_interior"),
    "kappa_zero": ("run", _set("model", "kappa", 0), "model: kappa"),
    "kappa_negative": ("run", _set("model", "kappa", -1.0), "model: kappa"),
    "initial_string": ("run", _set("initial", "abs_edge"), "initial"),
    "initial_without_source": ("run", _set("initial", {"height": 0.2}), "initial"),
    "checks_string": ("verify", _set("checks", "monotone"), "checks"),
    "dt_numeric_string": ("run", _set("solver", "dt", "0.05"), "solver: dt"),
    "run_stride_numeric_string": ("run", _set("outputs", "stride", "5"), "outputs: stride"),
    "kappa_numeric_string": ("run", _set("model", "kappa", "1"), "model: kappa"),
    "n_interior_numeric_string": ("run", _set("domain", "n_interior", "31"),
                                  "domain: n_interior"),
    "bump_height_numeric_string": ("run", _set("initial", {"preset": "bump", "height": "0.3"}),
                                   "initial: height"),
    "lambdas_numeric_string": ("yosida", _set("lambdas", [0.1, "0.01", 0.001]), "lambdas"),
    "family_stride_numeric_string": ("family", _set("solver", "snapshot_stride", "5"),
                                     "solver: snapshot_stride"),
    "dt_beyond_float": ("run", _set("solver", "dt", 10**400), "solver: dt"),
    "endpoint_beyond_float": ("run", _set("domain", "endpoints", [-10**400, 10**400]),
                              "domain: endpoints"),
    "spacing_square_overflows": ("run", _set("domain", "endpoints", [-1e300, 1e300]),
                                 "domain: endpoints"),
    "spacing_square_underflows": ("run", _set("domain", "endpoints", [-1e-300, 1e-300]),
                                  "domain: endpoints"),
    "bump_height_list": ("run", _set("initial", {"preset": "bump", "height": []}),
                         "initial: height"),
    "eigenfunction_c_list": ("run", _set("initial", {"preset": "eigenfunction", "c": [0, 1]}),
                             "initial: c"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_malformed_entry_exits_2_naming_it_before_stepping_or_writing(tmp_path, capsys,
                                                                      monkeypatch, case):
    command, edit, named = REFUSALS[case]
    doc = refusal_doc(command, tmp_path)
    edit(doc)
    monkeypatch.chdir(tmp_path)  # a stray relative write would land here
    path = write_config(tmp_path, doc)
    before = sorted(tmp_path.rglob("*"))

    def no_stepping(*args, **kwargs):
        raise AssertionError("stepped before refusing its config")

    monkeypatch.setattr("monoac.cli.run", no_stepping)
    monkeypatch.setattr("monoac.diagnostics.run", no_stepping)
    argv = ["sweep" if command in ("family", "yosida") else command.split("_")[0],
            "--config", path, "--quiet"]
    assert main(argv) == 2
    assert named in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


MANIFEST_DAMAGE = {
    "solver_extra_key": lambda m: m["solver"].update(extra=1),
    "grid_list": lambda m: m.update(grid=[1]),
    "snapshots_string": lambda m: m.update(snapshots="abc"),
    "kappa_string": lambda m: m["model"].update(kappa="abc"),
}


def damaged_run(tmp_path, case):
    """A run on disk whose manifest.json is damaged as MANIFEST_DAMAGE[case] says."""
    doc = run_config(tmp_path, domain=dict(D15))
    assert main(["run", "--config", write_config(tmp_path, doc, "run.json"), "--quiet"]) == 0
    manifest_path = tmp_path / "out" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    MANIFEST_DAMAGE[case](manifest)
    manifest_path.write_text(json.dumps(manifest))
    return tmp_path / "out"


@pytest.mark.parametrize("case", sorted(MANIFEST_DAMAGE))
def test_malformed_manifest_reads_raise_value_error(tmp_path, case):
    out = damaged_run(tmp_path, case)
    with pytest.raises(ValueError, match="manifest.json"):
        read_trajectory(out)
    with pytest.raises(ValueError, match="manifest.json"):
        load_state_field(out)


@pytest.mark.parametrize("case", sorted(MANIFEST_DAMAGE))
def test_malformed_manifest_verify_exits_4_with_load_report(tmp_path, case):
    out = damaged_run(tmp_path, case)
    doc = {"trajectory": str(out)}
    assert main(["verify", "--config", write_config(tmp_path, doc, "v.json"),
                 "--out", str(tmp_path / "vout"), "--quiet"]) == 4
    report = json.loads((tmp_path / "vout" / "verification.json").read_text())
    assert [(c["name"], c["passed"]) for c in report["checks"]] == [("load_trajectory", False)]


@pytest.mark.parametrize("case", sorted(MANIFEST_DAMAGE))
def test_malformed_manifest_equilibrium_exits_6(tmp_path, case):
    out = damaged_run(tmp_path, case)
    doc = {"domain": dict(D15), "model": {"kappa": 1.0}, "obstacle": {"preset": "abs_edge"},
           "warm_start": {"trajectory": str(out)}}
    assert main(["equilibrium", "--config", write_config(tmp_path, doc, "eq.json"),
                 "--quiet"]) == 6


def test_missing_config_flag_is_error():
    assert main(["run"]) == 2


@pytest.mark.parametrize("option", [["--out", "elsewhere"], ["--quiet"], ["--config", "c.json"]],
                         ids=["out", "quiet", "config"])
def test_option_before_the_subcommand_is_a_usage_error(tmp_path, capsys, monkeypatch, option):
    # the top-level parser takes no option, so none is silently dropped for the subcommand's
    doc = run_config(tmp_path, domain=dict(D15))
    doc["solver"] = dict(SOLVER)
    path = write_config(tmp_path, doc)
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    with pytest.raises(SystemExit) as exc:
        main(option + ["run", "--config", path])
    assert exc.value.code == 2
    assert "usage: monoac" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("kind", ["directory", "not_utf8"])
def test_unreadable_config_exits_2_naming_it(tmp_path, capsys, kind):
    path = tmp_path / "config.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"domain": "\xff"}')
    assert main(["run", "--config", str(path), "--quiet"]) == 2
    assert f"config error: {path}: " in capsys.readouterr().err


def test_stride_beyond_the_step_count_stores_the_first_and_last_states(tmp_path):
    doc = run_config(tmp_path, domain=dict(D15))
    doc["solver"] = dict(SOLVER)
    doc["outputs"]["stride"] = 1e300
    assert main(["run", "--config", write_config(tmp_path, doc), "--quiet"]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert [s["t"] for s in manifest["snapshots"]] == [0.0, manifest["t_end"]]
    assert manifest["n_steps"] == 10


def test_module_entry_point_refuses_a_missing_config_file(tmp_path):
    missing = tmp_path / "missing.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(REPO / "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-m", "monoac.cli", "run", "--config", str(missing)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert f"config file not found: {missing}" in proc.stderr


def test_2d_run_roundtrip(tmp_path):
    doc = {
        "domain": {"dim": 2, "endpoints": [[0, 1], [0, 1]], "n_interior": [9, 9]},
        "model": {"kappa": 1.0},
        "initial": {"preset": "bump", "center": [0.5, 0.5], "width": [0.3, 0.3],
                    "height": 0.2},
        "solver": {"scheme": "implicit_obstacle", "dt": 0.05, "t_end": 1.0},
        "outputs": {"directory": str(tmp_path / "sq"), "stride": 5},
        "checks": ["monotone", "energy_decrease", "range"],
    }
    assert main(["verify", "--config", write_config(tmp_path, doc), "--quiet"]) == 0
    back = read_trajectory(tmp_path / "sq")
    assert back.grid.dim == 2
    assert back.snapshots[0].values.shape == (81,)


def test_load_state_field_picks_the_stored_snapshot(tmp_path):
    doc = run_config(tmp_path)
    assert main(["run", "--config", write_config(tmp_path, doc), "--quiet"]) == 0
    out = tmp_path / "out"
    traj = read_trajectory(out)
    for t, k in ((0.6, 3), (0.6 + 1e-12, 3), (None, 10)):
        state = load_state_field(out, t=t)
        assert state.grid == traj.grid
        np.testing.assert_array_equal(state.values, traj.snapshots[k].values)
    for t in (0.7, 5.0, np.nan, np.inf, -np.inf):
        with pytest.raises(KeyError):
            load_state_field(out, t=t)
        with pytest.raises(KeyError):
            traj.state_at_time(t)


def test_only_verify_loads_openssl(tmp_path):
    # hashlib's OpenSSL backend costs every process memory and start-up time, and
    # only verify's manifest hash needs it
    run_doc = refusal_doc("run", tmp_path)
    family_doc = refusal_doc("family", tmp_path)
    family_doc["solver"] = {"scheme": "explicit", "dt": 0.005, "t_end": 0.5}
    family_doc["outputs"] = {"directory": str(tmp_path / "family")}
    run_cfg = write_config(tmp_path, run_doc)
    family_cfg = write_config(tmp_path, family_doc, "f.json")
    verify_cfg = write_config(tmp_path, {"trajectory": str(tmp_path / "out")}, "v.json")
    run_python(f"""
import sys
before = "_hashlib" in sys.modules
from monoac.cli import main
assert main(["run", "--config", {run_cfg!r}, "--quiet"]) == 0
assert main(["sweep", "--config", {family_cfg!r}, "--quiet"]) == 0
assert before or "_hashlib" not in sys.modules, "monoac loaded _hashlib"
assert main(["verify", "--config", {verify_cfg!r}, "--quiet"]) == 0
""", cwd=tmp_path)
    manifest = (tmp_path / "out" / "manifest.json").read_bytes()
    report = json.loads((tmp_path / "out" / "verification.json").read_text())
    assert report["manifest_sha256"] == hashlib.sha256(manifest).hexdigest()


def test_perfbench_tracer_installs():
    # the benchmark's tracer wraps package names by attribute; a rename breaks it
    run_python("import sys; sys.path.insert(0, 'perfbench'); import tracer; "
               "tracer.install(tracer.Tracer())", cwd=REPO)
