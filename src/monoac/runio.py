"""On-disk layout of a run: diagnostics and steps CSVs, snapshot CSVs, manifest JSON.

Float columns are written with repr (shortest round-trip form), so identical
configurations produce byte-identical CSV files.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np

from .config import number
from .grid import Field, make_grid, parse_csv_rows, read_field_csv, repr_floats, write_field_csv
from .model import SNAPSHOT_COLUMNS, ModelParams
from .steppers import SolverConfig, Trajectory, snapshot_index

__all__ = [
    "write_trajectory",
    "read_trajectory",
    "manifest_sha256",
    "write_verification",
    "write_json",
]

DIAGNOSTICS_FILE = "diagnostics.csv"
# the per-step series; row k's two step columns describe the step t_{k-1} -> t_k
STEPS_FILE = "steps.csv"
STEPS_COLUMNS = ("t", "res_l2sq", "obstacle_gap_min", "du_dt_l2", "step_min_increment")
MANIFEST_FILE = "manifest.json"


def _snapshot_filename(k: int) -> str:
    return f"snapshot_{k:08d}.csv"


def write_trajectory(traj: Trajectory, outdir, config_echo: dict | None = None):
    """Write diagnostics, per-step series, strided snapshots and the manifest."""
    os.makedirs(outdir, exist_ok=True)
    _write_table(os.path.join(outdir, DIAGNOSTICS_FILE), SNAPSHOT_COLUMNS, traj.diag.T)
    _write_table(os.path.join(outdir, STEPS_FILE), STEPS_COLUMNS,
                 [traj.times, traj.res_l2sq, traj.obstacle_gap_min, traj.du_dt_l2,
                  traj.step_min_increment])

    snapshot_files = []
    for i, (t, field) in enumerate(zip(traj.snapshot_times, traj.snapshots)):
        name = _snapshot_filename(i)
        write_field_csv(os.path.join(outdir, name), field)
        snapshot_files.append({"file": name, "t": float(t)})

    manifest = {
        "config": config_echo if config_echo is not None else dataclasses.asdict(traj.config),
        "solver": dataclasses.asdict(traj.config),
        "grid": dataclasses.asdict(traj.grid),
        "model": dataclasses.asdict(traj.params),
        "n_steps": traj.n_steps(),
        "t_end": float(traj.times[-1]),
        "snapshots": snapshot_files,
        "inner_iterations": [int(x) for x in traj.inner_iterations],
        "failure": traj.failure,
    }
    if traj.eta_hat_gap_l2 is not None and len(traj.eta_hat_gap_l2):
        manifest["eta_hat_gap_l2_max"] = float(np.max(traj.eta_hat_gap_l2))
    write_json(os.path.join(outdir, MANIFEST_FILE), manifest)


def write_json(path, doc):
    """Write doc as key-sorted JSON, indent 2 and a final newline, creating its directory."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def _write_table(path, columns, series):
    """A CSV of the series side by side, one per column.  A series one row short is per
    step: its row 0, where no step ends at t_0, is written as 0.0."""
    n = len(series[0])
    with open(path, "w") as f:
        f.write(",".join(columns) + "\n")
        for i in range(0, n, 4096):  # a block of rows at a time, not the table
            block = np.zeros((min(4096, n - i), len(columns)))
            for column, x in zip(block.T, series):
                lag = n - len(x)
                column[max(lag - i, 0):] = x[max(i - lag, 0):i - lag + len(column)]
            f.write("".join(",".join(repr_floats(row)) + "\n" for row in block))


def _read_table(path, columns) -> np.ndarray:
    with open(path) as f:
        header = f.readline().strip().split(",")
        body = f.read()
    if tuple(header) != columns:
        raise ValueError(f"{path}: unexpected header {header}")
    return parse_csv_rows(path, body, len(columns))


def read_trajectory(outdir) -> Trajectory:
    """Reload a written run for verification.

    The diagnostics table, the per-step series and the snapshots come back as
    run() returned them, so every check runs on a reloaded run as in memory.
    The step multipliers are not stored.  A missing or malformed file raises
    OSError or ValueError.
    """
    manifest = _read_manifest(outdir)
    grid = manifest["grid"]
    diag = _read_table(os.path.join(outdir, DIAGNOSTICS_FILE), SNAPSHOT_COLUMNS)
    steps_path = os.path.join(outdir, STEPS_FILE)
    steps = _read_table(steps_path, STEPS_COLUMNS)
    if not np.array_equal(steps[:, 0], diag[:, 0]):
        raise ValueError(f"{steps_path}: times differ from {DIAGNOSTICS_FILE}")

    snapshots = [read_field_csv(path, grid=grid) for path, _ in manifest["snapshots"]]

    return Trajectory(
        grid=grid, params=manifest["model"], config=manifest["solver"], u0=snapshots[0],
        times=diag[:, 0], diag=diag,
        res_l2sq=steps[:, 1], obstacle_gap_min=steps[:, 2], du_dt_l2=steps[1:, 3],
        step_min_increment=steps[1:, 4],
        inner_iterations=manifest["inner_iterations"],
        snapshot_times=np.array([t for _, t in manifest["snapshots"]]), snapshots=snapshots,
        failure=manifest.get("failure"),
    )


def _read_manifest(outdir) -> dict:
    """The manifest of a written run, its records read by a configuration's rules: "grid",
    "model" and "solver" as Grid, ModelParams and SolverConfig, "snapshots" as (path, t)
    pairs and "inner_iterations" as an int array.  ValueError if malformed or snapshot-less."""
    try:
        with open(os.path.join(outdir, MANIFEST_FILE)) as f:
            manifest = json.load(f)
        gsec, model = manifest["grid"], ModelParams(kappa=manifest["model"]["kappa"])
        grid = make_grid(gsec["dim"], gsec["endpoints"], gsec["n_interior"])
        if tuple(gsec["h"]) != grid.h:  # the snapshot headers are checked against grid.h
            raise ValueError(f"grid: h {gsec['h']} is not the endpoints' {list(grid.h)}")
        inner = manifest.get("inner_iterations", [])
        if not isinstance(inner, list) or any(
                type(k) not in (int, float) or not k >= 0 or k % 1 for k in inner):
            raise ValueError("inner_iterations: expected whole numbers >= 0")
        manifest = {
            **manifest, "grid": grid, "model": model, "solver": SolverConfig(**manifest["solver"]),
            "snapshots": [(os.path.join(outdir, e["file"]), number(e["t"], "snapshots: t"))
                          for e in manifest["snapshots"]],
            "inner_iterations": np.array([int(k) for k in inner], dtype=int),
        }
        manifest["solver"].validate(grid, model)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{outdir}: malformed {MANIFEST_FILE} ({exc!r})") from None
    if not manifest["snapshots"]:
        raise ValueError(f"{outdir}: no snapshots on disk")
    return manifest


def manifest_sha256(outdir) -> str:
    # CPython's own SHA-256, which hashlib falls back to: hashlib maps OpenSSL's libcrypto
    # (3.6 MB resident, 4-5 ms of import on a 2-vCPU Xeon), so no command loads it
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10-3.11
        except ImportError:  # an interpreter built without either
            from hashlib import sha256
    with open(os.path.join(outdir, MANIFEST_FILE), "rb") as f:
        return sha256(f.read()).hexdigest()


def write_verification(outdir, reports, manifest_hash: str | None):
    write_json(os.path.join(outdir, "verification.json"), {
        "checks": [r.to_dict() for r in reports],
        "all_passed": all(r.passed for r in reports),
        "manifest_sha256": manifest_hash,
    })


def load_state_field(outdir, t: float | None = None) -> Field:
    """Snapshot at time t (default: final) from a written run.

    Reads the manifest and that one snapshot; KeyError if none is stored at t.
    """
    manifest = _read_manifest(outdir)
    entries = manifest["snapshots"]
    idx = -1 if t is None else snapshot_index([time for _, time in entries], t)
    return read_field_csv(entries[idx][0], grid=manifest["grid"])
