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

    parser = argparse.ArgumentParser(prog="monoac", description=__doc__,
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


def _run_and_write(setup, outdir, doc) -> bool:
    """Run a run configuration and write its trajectory; after a solver failure write
    the partial one and return False (exit code 3)."""
    try:
        traj = run(setup.grid, setup.u0, setup.params, setup.solver)
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        if exc.trajectory is not None:
            runio.write_trajectory(exc.trajectory, outdir, config_echo=doc)
            print(f"partial outputs kept in {outdir}", file=sys.stderr)
        return False
    runio.write_trajectory(traj, outdir, config_echo=doc)
    return True


def cmd_run(args, doc) -> int:
    """Integrate one configuration and write its trajectory artifacts."""
    setup = parse_run_config(doc)
    outdir = args.out or setup.out_dir
    if not _run_and_write(setup, outdir, doc):
        return 3
    n = setup.solver.n_steps()
    _say(args, f"run finished: {n} steps to t={setup.solver.dt * n:g}, outputs in {outdir}")
    return 0


def cmd_verify(args, doc) -> int:
    """Run the configured checks over a written run, run first from a run configuration."""
    if "trajectory" in doc:
        config.require_keys(doc, "config", ("trajectory",), ("checks", "outputs"))
        trajectory = config.path_string(doc["trajectory"], "trajectory")
        outdir = config.output_dir(doc, args.out) or trajectory
        checks = config.parse_checks(doc.get("checks"))
    else:
        setup = parse_run_config(doc)
        trajectory = outdir = args.out or setup.out_dir
        if not _run_and_write(setup, outdir, doc):
            return 3
        checks = setup.checks
    try:
        traj = runio.read_trajectory(trajectory)
        manifest_hash = runio.manifest_sha256(trajectory)
    except (OSError, ValueError) as exc:
        runio.write_verification(outdir, [diagnostics.error_report("load_trajectory", exc)], None)
        print(f"trajectory unusable: {exc}", file=sys.stderr)
        return 4
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
    options = {k: read(doc[k], k)
               for k, read in (("tol", config.positive), ("max_iter", config.count)) if k in doc}
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
        source = parse_solver(source, g, p, 10, "warm_start: run")
    outdir = config.output_dir(doc, args.out)
    try:
        if kind == "trajectory":
            warm = runio.load_state_field(source)
            if warm.grid != g:
                raise ValueError(f"{source}: the run is not on the configured domain")
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
    if not isinstance(kind, str) or kind not in _SWEEPS:
        raise config.ConfigError(f"sweep: unknown kind {kind!r}")
    sweep, required, optional = _SWEEPS[kind]
    config.require_keys(doc, "config", ("kind", "domain", "model") + required,
                        ("outputs",) + optional)
    g = parse_domain(doc["domain"])
    p = parse_model(doc["model"])
    outdir = config.output_dir(doc, args.out)
    try:
        members, aggregate, report, summary = sweep(doc, g, p)
    except SolverError as exc:
        print(f"sweep member failure: {exc}", file=sys.stderr)
        return 7
    if outdir:
        for name, extras, traj in members:
            runio.write_trajectory(traj, os.path.join(outdir, name),
                                   config_echo={**doc, **extras})
        runio.write_json(os.path.join(outdir, "sweep.json"), {"kind": kind, **aggregate})
        runio.write_json(os.path.join(outdir, "sweep_manifest.json"), doc)
    _say(args, summary)
    return 0 if report.passed else 4


def _sweep_yosida(doc, g, p):
    u0 = parse_initial(doc["initial"], g, p)
    lambdas, base, ref_section = config.yosida_sections(doc)
    ref_cfg = parse_solver(ref_section, g, p, where="reference_solver")
    cfgs = [parse_solver({**base, "yosida_lambda": lam}, g, p, where="base_solver")
            for lam in lambdas]
    try:
        trajs, ref, report = diagnostics.yosida_sweep(g, u0, p, cfgs, ref_cfg)
    except ValueError as exc:
        raise config.ConfigError(f"sweep: {exc}") from None
    errors = report.details["errors"]
    members = [(f"lambda_{lam!r}", {"member_lambda": lam}, traj)
               for lam, traj in zip(lambdas, trajs)]
    return (members + [("reference", {}, ref)],
            {"lambdas": lambdas, "errors": errors, "monotone_decreasing": report.passed},
            report, f"errors by lambda: {dict(zip(lambdas, errors))}")


def _sweep_family(doc, g, p):
    initials = [parse_initial(section, g, p)
                for section in config.nonempty_list(doc["presets"], "presets")]
    cfg = parse_solver(doc["solver"], g, p)
    margin = config.positive(doc.get("margin", 1.0), "margin")
    trajs = run(g, initials, p, cfg)
    r_level = max(float(t.series("res_neg_l2sq")[0]) for t in trajs)
    c_hat = max(diagnostics.check_dissipation(t, p).details["c_hat"] for t in trajs)
    m0 = -energy_floor(g, p)
    phi_bound = c_hat / (2.0 * p.kappa) + margin
    c_bound = 2.0 * p.kappa * m0 + r_level + c_hat / (2.0 * p.kappa) + margin
    report = diagnostics.check_absorbing(trajs, p, c_bound, phi_bound)
    return ([(f"member_{idx:02d}", {"member_index": idx}, traj)
             for idx, traj in enumerate(trajs)],
            {"r_level": r_level, "c_hat": c_hat, "c_bound": c_bound, "phi_bound": phi_bound,
             "absorbing": report.to_dict()},
            report, f"absorbing entry times: {report.details['entry_times']}")


# kind -> (sweep, its required and optional keys besides kind, domain, model and outputs).
# A sweep parses all its sections, then steps: (doc, g, p) -> (members, aggregate, report,
# summary line), each member a (directory name, config-echo extras, trajectory).
_SWEEPS = {
    "yosida_lambda": (_sweep_yosida, ("initial", "base_solver", "lambdas", "reference_solver"), ()),
    "preset_family": (_sweep_family, ("presets", "solver"), ("margin",)),
}

_COMMANDS = {
    "run": cmd_run,
    "verify": cmd_verify,
    "eigen": cmd_eigen,
    "equilibrium": cmd_equilibrium,
    "sweep": cmd_sweep,
}


if __name__ == "__main__":
    sys.exit(main())
