"""Command-line front door.

Subcommands: run, verify, eigen, equilibrium, sweep.  Exit codes:

    0  success
    2  invalid configuration
    3  solver failure during a run (partial outputs are kept)
    4  a verification check failed (report still written)
    5  eigensolver failure
    6  equilibrium polish failure
    7  sweep member failure
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import diagnostics, runio
from .config import (
    ConfigError,
    _parse_checks,
    _require_keys,
    default_stride,
    load_json,
    number,
    parse_domain,
    parse_initial,
    parse_model,
    parse_run_config,
    parse_solver,
)
from .grid import Field, read_field_csv, write_field_csv
from .model import ModelParams, energy_floor
from .obstacle import KernelError, solve_equilibrium
from .spectral import EigenError, min_eig
from .steppers import SolverError, run

DEFAULT_CHECK_SUITE = ["monotone", "energy_decrease", "eta_monotone", "range",
                       "dissipation", "smoothing"]


def _run_checks_reporting(traj, checks) -> list:
    """Run checks one at a time, turning check errors into failed reports."""
    reports = []
    for item in checks:
        name = item if isinstance(item, str) else item["name"]
        try:
            reports.extend(diagnostics.run_checks(traj, [item]))
        except ValueError as exc:
            reports.append(diagnostics.CheckReport(
                name=name, passed=False, worst_violation=float("inf"),
                tolerance=0.0, location=None, details={"error": str(exc)}))
    return reports


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=False, help="path to the JSON configuration")
    common.add_argument("--out", default=None, help="override the output directory")
    common.add_argument("--quiet", action="store_true", help="suppress progress output")

    parser = argparse.ArgumentParser(prog="monoac", parents=[common],
                                     description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        sp = sub.add_parser(name, parents=[common], help=fn.__doc__)
        sp.set_defaults(handler=fn)
    args = parser.parse_args(argv)
    if not args.config:
        print("error: --config is required", file=sys.stderr)
        return 2
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def _say(args, message):
    if not args.quiet:
        print(message)


def _solver_failure(exc: SolverError, outdir, config_echo) -> int:
    """Report a failed run, keep its partial trajectory and return exit code 3."""
    print(f"solver failure: {exc}", file=sys.stderr)
    if exc.trajectory is not None:
        runio.write_trajectory(exc.trajectory, outdir, config_echo=config_echo)
        print(f"partial outputs kept in {outdir}", file=sys.stderr)
    return 3


def cmd_run(args) -> int:
    """Integrate one configuration and write its trajectory artifacts."""
    setup = parse_run_config(load_json(args.config))
    outdir = args.out or setup.out_dir
    try:
        traj = run(setup.grid, setup.u0, setup.params, setup.solver)
    except SolverError as exc:
        return _solver_failure(exc, outdir, setup.echo)
    runio.write_trajectory(traj, outdir, config_echo=setup.echo)
    _say(args, f"run finished: {traj.n_steps()} steps to t={traj.times[-1]:g}, "
               f"outputs in {outdir}")
    return 0


def cmd_verify(args) -> int:
    """Run the configured checks over a fresh or existing trajectory."""
    doc = load_json(args.config)
    if "trajectory" in doc:
        _require_keys(doc, "config", ("trajectory",), ("checks", "outputs"))
        outdir = args.out or (doc.get("outputs") or {}).get("directory") or doc["trajectory"]
        checks = _parse_checks(doc.get("checks"))
        try:
            traj = runio.read_trajectory(doc["trajectory"])
            manifest_hash = runio.manifest_sha256(doc["trajectory"])
        except (OSError, ValueError, KeyError) as exc:
            report = diagnostics.CheckReport(
                name="load_trajectory", passed=False, worst_violation=float("inf"),
                tolerance=0.0, location=None, details={"error": str(exc)})
            runio.write_verification(outdir, [report], None)
            print(f"trajectory unusable: {exc}", file=sys.stderr)
            return 4
    else:
        setup = parse_run_config(doc)
        outdir = args.out or setup.out_dir
        try:
            traj = run(setup.grid, setup.u0, setup.params, setup.solver)
        except SolverError as exc:
            return _solver_failure(exc, outdir, doc)
        runio.write_trajectory(traj, outdir, config_echo=doc)
        manifest_hash = runio.manifest_sha256(outdir)
        checks = setup.checks
    reports = _run_checks_reporting(traj, checks or DEFAULT_CHECK_SUITE)
    runio.write_verification(outdir, reports, manifest_hash)
    for r in reports:
        _say(args, f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: "
                   f"violation {r.worst_violation:.3e} vs tol {r.tolerance:.3e}")
    return 0 if all(r.passed for r in reports) else 4


def cmd_eigen(args) -> int:
    """Smallest eigenvalue of -lap + V on the configured domain."""
    doc = load_json(args.config)
    _require_keys(doc, "config", ("domain", "potential"),
                  ("model", "tol", "max_iter", "outputs"))
    g = parse_domain(doc["domain"])
    p = parse_model(doc["model"]) if "model" in doc else ModelParams(kappa=1.0)
    V = _parse_potential(doc["potential"], g, p)
    tol = number(doc.get("tol", 1e-9), "tol")
    max_iter = number(doc.get("max_iter", 500), "max_iter", int)
    try:
        result = min_eig(g, V, tol=tol, max_iter=max_iter)
    except EigenError as exc:
        print(f"eigensolver failure: {exc}", file=sys.stderr)
        return 5
    outdir = args.out or (doc.get("outputs") or {}).get("directory")
    if outdir:
        os.makedirs(outdir, exist_ok=True)
        with open(os.path.join(outdir, "eigen.json"), "w") as f:
            json.dump({**result.to_dict(), "config": doc}, f, indent=2, sort_keys=True)
            f.write("\n")
        write_field_csv(os.path.join(outdir, "eigenfield.csv"), result.eigenfield)
    _say(args, f"lambda_min = {result.lambda_min!r} "
               f"(residual {result.residual:.3e}, {result.iterations} iterations)")
    if args.quiet:
        print(repr(result.lambda_min))
    return 0


def _parse_potential(section, g, p) -> Field:
    _require_keys(section, "potential", ("type",),
                  ("value", "path", "initial", "scale"))
    kind = section["type"]
    if kind == "zero":
        return Field(g, np.zeros(g.n_nodes))
    if kind == "constant":
        if "value" not in section:
            raise ConfigError("potential: constant type needs 'value'")
        return Field(g, float(section["value"]) * np.ones(g.n_nodes))
    if kind == "csv":
        if "path" not in section:
            raise ConfigError("potential: csv type needs 'path'")
        try:
            return read_field_csv(section["path"], grid=g)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"potential: {exc}") from None
    if kind == "scaled_square":
        if "initial" not in section:
            raise ConfigError("potential: scaled_square type needs 'initial'")
        u0 = parse_initial(section["initial"], g, p)
        scale = float(section.get("scale", 3.0))
        return Field(g, scale * u0.values**2)
    raise ConfigError(f"potential: unknown type {kind!r}")


def cmd_equilibrium(args) -> int:
    """Polish a warm start into a stationary-problem solution and certify it."""
    doc = load_json(args.config)
    _require_keys(doc, "config", ("domain", "model", "obstacle", "warm_start"),
                  ("tol", "outputs"))
    g = parse_domain(doc["domain"])
    p = parse_model(doc["model"])
    u0 = parse_initial(doc["obstacle"], g, p)
    tol = number(doc.get("tol", 1e-6), "tol")
    warm_section = doc["warm_start"]
    _require_keys(warm_section, "warm_start", (), ("trajectory", "csv", "run"))
    try:
        if "trajectory" in warm_section:
            warm = runio.load_state_field(warm_section["trajectory"])
        elif "csv" in warm_section:
            warm = read_field_csv(warm_section["csv"], grid=g)
        elif "run" in warm_section:
            section = dict(warm_section["run"])
            stride = (number(section.pop("snapshot_stride", 0), "warm_start: run: snapshot_stride",
                             int) or default_stride(section, 10))
            cfg = parse_solver(section, g, p, stride)
            traj = run(g, u0, p, cfg)
            warm = traj.final_state()
        else:
            raise ConfigError("warm_start: needs 'trajectory', 'csv' or 'run'")
    except (SolverError, OSError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        print(f"equilibrium failure while preparing the warm start: {exc}", file=sys.stderr)
        return 6
    try:
        eq, eta, report = solve_equilibrium(g, u0, p, warm, tol=tol)
    except KernelError as exc:
        print(f"equilibrium failure: {exc}", file=sys.stderr)
        return 6
    outdir = args.out or (doc.get("outputs") or {}).get("directory")
    doc_out = {"complementarity": report.to_dict(), "tol": tol,
               "distance_from_warm_start_inf": float(np.max(np.abs(eq.values - warm.values))),
               "config": doc}
    if outdir:
        os.makedirs(outdir, exist_ok=True)
        with open(os.path.join(outdir, "equilibrium.json"), "w") as f:
            json.dump(doc_out, f, indent=2, sort_keys=True)
            f.write("\n")
        write_field_csv(os.path.join(outdir, "equilibrium.csv"), eq)
        write_field_csv(os.path.join(outdir, "multiplier.csv"), eta)
    _say(args, f"equilibrium residuals: {report.to_dict()}")
    return 0


def cmd_sweep(args) -> int:
    """Fan out independent runs and aggregate a multi-run verdict."""
    doc = load_json(args.config)
    kind = doc.get("kind")
    if kind == "yosida_lambda":
        return _sweep_yosida(args, doc)
    if kind == "preset_family":
        return _sweep_family(args, doc)
    raise ConfigError(f"sweep: unknown kind {doc.get('kind')!r}")


def _write_sweep_outputs(outdir, doc, aggregate):
    if not outdir:
        return
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "sweep.json"), "w") as f:
        json.dump(aggregate, f, indent=2, sort_keys=True)
        f.write("\n")
    with open(os.path.join(outdir, "sweep_manifest.json"), "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def _sweep_yosida(args, doc) -> int:
    _require_keys(doc, "config", ("kind", "domain", "model", "initial",
                                  "base_solver", "lambdas", "reference_solver"),
                  ("outputs",))
    g = parse_domain(doc["domain"])
    p = parse_model(doc["model"])
    u0 = parse_initial(doc["initial"], g, p)
    if not isinstance(doc["lambdas"], list) or not doc["lambdas"]:
        raise ConfigError("lambdas: expected a non-empty list")
    lambdas = [number(x, "lambdas") for x in doc["lambdas"]]
    base = dict(doc["base_solver"])
    base.setdefault("scheme", "yosida")
    stride = number(base.pop("snapshot_stride", 1), "base_solver: snapshot_stride", int)
    ref_section = dict(doc["reference_solver"])
    ref_section.setdefault("scheme", "implicit_obstacle")
    ref_stride = number(ref_section.pop("snapshot_stride", 1),
                        "reference_solver: snapshot_stride", int)
    ref_cfg = parse_solver(ref_section, g, p, ref_stride)
    outdir = args.out or (doc.get("outputs") or {}).get("directory")

    # the members differ in yosida_lambda only, so they step as one ensemble
    cfgs = [parse_solver({**base, "yosida_lambda": lam}, g, p, stride) for lam in lambdas]
    try:
        trajs = run(g, [u0] * len(cfgs), p, cfgs)
        ref = run(g, u0, p, ref_cfg)
    except (SolverError, ValueError) as exc:
        print(f"sweep member failure: {exc}", file=sys.stderr)
        return 7
    if outdir:
        for lam, traj in zip(lambdas, trajs):
            runio.write_trajectory(traj, os.path.join(outdir, f"lambda_{lam!r}"),
                                   config_echo={**doc, "member_lambda": lam})
        runio.write_trajectory(ref, os.path.join(outdir, "reference"), config_echo=doc)
    errors = [diagnostics.snapshot_error(traj, ref)[0] for traj in trajs]
    decreasing = all(b < a for a, b in zip(errors, errors[1:])) or max(errors) <= 1e-12
    aggregate = {"kind": "yosida_lambda", "lambdas": lambdas, "errors": errors,
                 "monotone_decreasing": decreasing}
    _write_sweep_outputs(outdir, doc, aggregate)
    _say(args, f"errors by lambda: {dict(zip(lambdas, errors))}")
    return 0 if decreasing else 4


def _sweep_family(args, doc) -> int:
    _require_keys(doc, "config", ("kind", "domain", "model", "presets", "solver"),
                  ("outputs", "margin"))
    g = parse_domain(doc["domain"])
    p = parse_model(doc["model"])
    initials = [parse_initial(section, g, p) for section in doc["presets"]]
    stride = number(doc["solver"].get("snapshot_stride", 0), "solver: snapshot_stride", int) or 1
    solver_section = {k: v for k, v in doc["solver"].items() if k != "snapshot_stride"}
    cfg = parse_solver(solver_section, g, p, stride)
    margin = number(doc.get("margin", 1.0), "margin")
    outdir = args.out or (doc.get("outputs") or {}).get("directory")

    try:
        trajs = run(g, initials, p, cfg)
    except (SolverError, ValueError) as exc:
        print(f"sweep member failure: {exc}", file=sys.stderr)
        return 7
    if outdir:
        for idx, traj in enumerate(trajs):
            runio.write_trajectory(traj, os.path.join(outdir, f"member_{idx:02d}"),
                                   config_echo={**doc, "member_index": idx})
    r_level = max(float(t.series("res_neg_l2sq")[0]) for t in trajs)
    c_hat = max(diagnostics.check_dissipation(t, p).details["c_hat"] for t in trajs)
    m0 = -energy_floor(g, p)
    phi_bound = c_hat / (2.0 * p.kappa) + margin
    c_bound = 2.0 * p.kappa * m0 + r_level + c_hat / (2.0 * p.kappa) + margin
    report = diagnostics.check_absorbing(trajs, p, c_bound, phi_bound)
    aggregate = {"kind": "preset_family", "r_level": r_level, "c_hat": c_hat,
                 "c_bound": c_bound, "phi_bound": phi_bound,
                 "absorbing": report.to_dict()}
    _write_sweep_outputs(outdir, doc, aggregate)
    _say(args, f"absorbing entry times: {report.details['entry_times']}")
    return 0 if report.passed else 4


_COMMANDS = {
    "run": cmd_run,
    "verify": cmd_verify,
    "eigen": cmd_eigen,
    "equilibrium": cmd_equilibrium,
    "sweep": cmd_sweep,
}


if __name__ == "__main__":
    sys.exit(main())
