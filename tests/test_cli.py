import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from monoac import Field, ModelParams, SolverConfig, make_grid, run
from monoac.cli import main
from monoac.grid import read_field_csv, write_field_csv
from monoac.presets import make_initial
from monoac.runio import load_state_field, read_trajectory, write_trajectory

REPO = Path(__file__).resolve().parents[1]


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


def test_missing_config_flag_is_error():
    assert main(["run"]) == 2


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
    for t in (0.7, 5.0):
        with pytest.raises(KeyError):
            load_state_field(out, t=t)


def test_perfbench_tracer_installs():
    # the benchmark's tracer wraps package names by attribute; a rename breaks it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(REPO / "src"), env.get("PYTHONPATH", "")])
    code = ("import sys; sys.path.insert(0, 'perfbench'); import tracer; "
            "tracer.install(tracer.Tracer())")
    proc = subprocess.run([sys.executable, "-c", code], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
