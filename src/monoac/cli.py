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
import os
import sys

import numpy as np

from . import config, diagnostics, runio
from .config import (
    load_json,
    parse_domain,
    parse_initial,
    parse_model,
    parse_run_config,
    parse_solver,
)
from .grid import read_field_csv, write_field_csv
from .model import ModelParams, energy_floor
from .obstacle import EQUILIBRIUM_TOL, KernelError, solve_equilibrium
from .spectral import EigenError, min_eig
from .steppers import SolverError, run

DEFAULT_CHECK_SUITE = ["monotone", "energy_decrease", "eta_monotone", "range",
                       "dissipation", "smoothing"]


def _run_checks_reporting(traj, checks) -> list:
    """Run checks one at a time, turning check errors into failed reports."""
    reports = []
    for item in checks:
        try:
            reports.extend(diagnostics.run_checks(traj, [item]))
        except ValueError as exc:
            name = item if isinstance(item, str) else item["name"]
            reports.append(diagnostics.error_report(name, exc))
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
        return args.handler(args, load_json(args.config))
    except config.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def _say(args, message):
    if not args.quiet:
        print(message)


def _run_and_write(setup, outdir, doc):
    """Run a run configuration and write and return its trajectory; after a solver
    failure write the partial one and return None (exit code 3)."""
    try:
        traj = run(setup.grid, setup.u0, setup.params, setup.solver)
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        if exc.trajectory is not None:
            runio.write_trajectory(exc.trajectory, outdir, config_echo=doc)
            print(f"partial outputs kept in {outdir}", file=sys.stderr)
        return None
    runio.write_trajectory(traj, outdir, config_echo=doc)
    return traj


def cmd_run(args, doc) -> int:
    """Integrate one configuration and write its trajectory artifacts."""
    setup = parse_run_config(doc)
    outdir = args.out or setup.out_dir
    traj = _run_and_write(setup, outdir, doc)
    if traj is None:
        return 3
    _say(args, f"run finished: {traj.n_steps()} steps to t={traj.times[-1]:g}, "
               f"outputs in {outdir}")
    return 0


def cmd_verify(args, doc) -> int:
    """Run the configured checks over a fresh or existing trajectory."""
    if "trajectory" in doc:
        config.require_keys(doc, "config", ("trajectory",), ("checks", "outputs"))
        trajectory = config.path_string(doc["trajectory"], "trajectory")
        outdir = config.output_dir(doc, args.out) or trajectory
        checks = config.parse_checks(doc.get("checks"))
        try:
            traj = runio.read_trajectory(trajectory)
            manifest_hash = runio.manifest_sha256(trajectory)
        except (OSError, ValueError) as exc:
            runio.write_verification(outdir, [diagnostics.error_report("load_trajectory", exc)],
                                     None)
            print(f"trajectory unusable: {exc}", file=sys.stderr)
            return 4
    else:
        setup = parse_run_config(doc)
        outdir = args.out or setup.out_dir
        traj = _run_and_write(setup, outdir, doc)
        if traj is None:
            return 3
        manifest_hash = runio.manifest_sha256(outdir)
        checks = setup.checks
    reports = _run_checks_reporting(traj, checks or DEFAULT_CHECK_SUITE)
    runio.write_verification(outdir, reports, manifest_hash)
    for r in reports:
        at = "" if r.passed or r.location is None else f" at t={r.location:g}"
        _say(args, f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: "
                   f"violation {r.worst_violation:.3e} vs tol {r.tolerance:.3e}{at}")
    return 0 if all(r.passed for r in reports) else 4


def cmd_eigen(args, doc) -> int:
    """Smallest eigenvalue of -lap + V on the configured domain."""
    config.require_keys(doc, "config", ("domain", "potential"),
                        ("model", "tol", "max_iter", "outputs"))
    g = parse_domain(doc["domain"])
    p = parse_model(doc["model"]) if "model" in doc else ModelParams(kappa=1.0)
    V = config.parse_potential(doc["potential"], g, p)
    options = {k: config.positive(doc[k], k, kind)
               for k, kind in (("tol", float), ("max_iter", int)) if k in doc}
    outdir = config.output_dir(doc, args.out)
    try:
        result = min_eig(g, V, **options)
    except EigenError as exc:
        print(f"eigensolver failure: {exc}", file=sys.stderr)
        return 5
    if outdir:
        runio.write_json(os.path.join(outdir, "eigen.json"), {**result.to_dict(), "config": doc})
        write_field_csv(os.path.join(outdir, "eigenfield.csv"), result.eigenfield)
    _say(args, f"lambda_min = {result.lambda_min!r} "
               f"(residual {result.residual:.3e}, {result.iterations} iterations)")
    if args.quiet:
        print(repr(result.lambda_min))
    return 0


def cmd_equilibrium(args, doc) -> int:
    """Polish a warm start into a stationary-problem solution and certify it."""
    config.require_keys(doc, "config", ("domain", "model", "obstacle", "warm_start"),
                        ("tol", "outputs"))
    g = parse_domain(doc["domain"])
    p = parse_model(doc["model"])
    u0 = parse_initial(doc["obstacle"], g, p)
    tol = config.positive(doc.get("tol", EQUILIBRIUM_TOL), "tol")
    kind, source = config.warm_start_source(doc["warm_start"])
    if kind == "run":
        source = parse_solver(source, g, p, config.default_stride(source, 10), "warm_start: run")
    outdir = config.output_dir(doc, args.out)
    try:
        if kind == "trajectory":
            warm = runio.load_state_field(source)
        elif kind == "csv":
            warm = read_field_csv(source, grid=g)
        else:
            warm = run(g, u0, p, source).final_state()
    except (SolverError, OSError, ValueError) as exc:
        print(f"equilibrium failure while preparing the warm start: {exc}", file=sys.stderr)
        return 6
    try:
        eq, eta, report = solve_equilibrium(g, u0, p, warm, tol=tol)
    except KernelError as exc:
        print(f"equilibrium failure: {exc}", file=sys.stderr)
        return 6
    doc_out = {"complementarity": report.to_dict(), "tol": tol,
               "distance_from_warm_start_inf": float(np.max(np.abs(eq.values - warm.values))),
               "config": doc}
    if outdir:
        runio.write_json(os.path.join(outdir, "equilibrium.json"), doc_out)
        write_field_csv(os.path.join(outdir, "equilibrium.csv"), eq)
        write_field_csv(os.path.join(outdir, "multiplier.csv"), eta)
    _say(args, f"equilibrium residuals: {report.to_dict()}")
    return 0


def cmd_sweep(args, doc) -> int:
    """Fan out independent runs and aggregate a multi-run verdict."""
    kind = doc.get("kind")
    if kind == "yosida_lambda":
        return _sweep_yosida(args, doc)
    if kind == "preset_family":
        return _sweep_family(args, doc)
    raise config.ConfigError(f"sweep: unknown kind {kind!r}")


def _write_sweep_outputs(outdir, doc, aggregate):
    if outdir:
        runio.write_json(os.path.join(outdir, "sweep.json"), aggregate)
        runio.write_json(os.path.join(outdir, "sweep_manifest.json"), doc)


def _sweep_yosida(args, doc) -> int:
    config.require_keys(doc, "config", ("kind", "domain", "model", "initial", "base_solver",
                                        "lambdas", "reference_solver"), ("outputs",))
    g = parse_domain(doc["domain"])
    p = parse_model(doc["model"])
    u0 = parse_initial(doc["initial"], g, p)
    lambdas, base, ref_section = config.yosida_sections(doc)
    ref_cfg = parse_solver(ref_section, g, p, 1, "reference_solver")
    outdir = config.output_dir(doc, args.out)

    cfgs = [parse_solver({**base, "yosida_lambda": lam}, g, p, 1, "base_solver")
            for lam in lambdas]
    try:
        trajs, ref, report = diagnostics.yosida_sweep(g, u0, p, cfgs, ref_cfg)
    except SolverError as exc:
        print(f"sweep member failure: {exc}", file=sys.stderr)
        return 7
    except ValueError as exc:
        raise config.ConfigError(f"sweep: {exc}") from None
    if outdir:
        for lam, traj in zip(lambdas, trajs):
            runio.write_trajectory(traj, os.path.join(outdir, f"lambda_{lam!r}"),
                                   config_echo={**doc, "member_lambda": lam})
        runio.write_trajectory(ref, os.path.join(outdir, "reference"), config_echo=doc)
    errors = report.details["errors"]
    aggregate = {"kind": "yosida_lambda", "lambdas": lambdas, "errors": errors,
                 "monotone_decreasing": report.passed}
    _write_sweep_outputs(outdir, doc, aggregate)
    _say(args, f"errors by lambda: {dict(zip(lambdas, errors))}")
    return 0 if report.passed else 4


def _sweep_family(args, doc) -> int:
    config.require_keys(doc, "config", ("kind", "domain", "model", "presets", "solver"),
                        ("outputs", "margin"))
    g = parse_domain(doc["domain"])
    p = parse_model(doc["model"])
    initials = [parse_initial(section, g, p)
                for section in config.nonempty_list(doc["presets"], "presets")]
    cfg = parse_solver(doc["solver"], g, p, 1)
    margin = config.positive(doc.get("margin", 1.0), "margin")
    outdir = config.output_dir(doc, args.out)

    try:
        trajs = run(g, initials, p, cfg)
    except SolverError as exc:
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
