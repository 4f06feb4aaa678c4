"""Acceptance gate: every criterion at its stated tolerance, one line per verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they stream.  The full module takes a few minutes; the explicit and
regularized schemes honor the parabolic stability bound, so the t = 5 and
t = 10 horizons need several hundred thousand steps each.
"""

import json
import time

import numpy as np
import pytest

from monoac import (
    Field,
    ModelParams,
    SolverConfig,
    cfl_limit,
    dr_value,
    make_grid,
    norm_lp,
    positive_part,
    residual,
    run,
    sigma_rate,
    solve_equilibrium,
)
from monoac.cli import main
from monoac.diagnostics import (
    check_absorbing,
    check_comparison,
    check_dissipation,
    check_eta_monotone,
    fit_decay_rate,
)
from monoac.model import energy_floor
from monoac.obstacle import ObstacleProblem, brute_force_obstacle, solve_active_set, solve_pgs
from monoac.presets import make_initial

P1 = ModelParams(kappa=1.0)


def _verdict(number, description, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {description}"
          + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {number}: {description} {detail}"


def _presets_on_grids():
    """The preset family at n=127, each on its natural domain."""
    g_unit = make_grid(1, (0, 1), 127)
    g_sym = make_grid(1, (-1, 1), 127)
    return [
        ("zero", g_unit, make_initial("zero", g_unit, P1)),
        ("eigenfunction", g_unit, make_initial("eigenfunction", g_unit, P1, c=0.75)),
        ("supersolution", g_unit, make_initial("supersolution", g_unit, P1, c=1.0)),
        ("bump", g_unit, make_initial("bump", g_unit, P1, center=0.5, width=0.25, height=0.2)),
        ("abs_edge", g_sym, make_initial("abs_edge", g_sym, P1)),
        ("neg_const", g_sym, make_initial("neg_const", g_sym, P1)),
    ]


@pytest.fixture(scope="module")
def preset_runs_t5():
    """Criterion 3 corpus: every preset under all three schemes to t = 5.

    The presets that share a grid run as one ensemble per scheme.
    """
    by_grid = {}
    for name, g, u0 in _presets_on_grids():
        by_grid.setdefault(g, []).append((name, u0))
    out = {}
    for g, members in by_grid.items():
        dt_e = cfl_limit(g) / 2
        stride = int(round(1.0 / dt_e))
        configs = {
            "explicit": SolverConfig(scheme="explicit", dt=dt_e, t_end=5.0,
                                     snapshot_stride=stride),
            "yosida": SolverConfig(scheme="yosida", dt=dt_e, t_end=5.0, yosida_lambda=1e-2,
                                   snapshot_stride=stride),
            "implicit_obstacle": SolverConfig(scheme="implicit_obstacle", dt=0.01, t_end=5.0,
                                              snapshot_stride=100),
        }
        for scheme, cfg in configs.items():
            trajs = run(g, [u0 for _, u0 in members], P1, cfg)
            for (name, _), traj in zip(members, trajs):
                out[(name, scheme)] = traj
    return out


@pytest.fixture(scope="module")
def implicit_dt_runs():
    """Criteria 4 and 13 corpus: convex-split runs across three step sizes."""
    out = {}
    for name, g, u0 in _presets_on_grids():
        for dt in (1e-1, 1e-2, 1e-3):
            cfg = SolverConfig(scheme="implicit_obstacle", dt=dt, t_end=2.0,
                               snapshot_stride=max(1, int(0.5 / dt)))
            out[(name, dt)] = run(g, u0, P1, cfg)
    return out


def test_criterion_01_eigenvalue_exactness(tmp_path):
    doc = {
        "domain": {"dim": 1, "endpoints": [0, 1], "n_interior": 127},
        "potential": {"type": "zero"},
        "tol": 1e-10,
        "outputs": {"directory": str(tmp_path / "eig")},
    }
    cfg_path = tmp_path / "eigen.json"
    cfg_path.write_text(json.dumps(doc))
    started = time.perf_counter()
    code = main(["eigen", "--config", str(cfg_path), "--quiet"])
    elapsed = time.perf_counter() - started
    result = json.loads((tmp_path / "eig" / "eigen.json").read_text())
    h = 1.0 / 128.0
    exact = (2.0 / h**2) * (1.0 - np.cos(np.pi * h))
    rel = abs(result["lambda_min"] - exact) / exact
    _verdict(1, "eigenvalue within 1e-8 relative of the stencil value in < 1 s",
             code == 0 and rel <= 1e-8 and elapsed < 1.0,
             f"rel={rel:.2e}, {elapsed:.2f}s")


def test_criterion_02_obstacle_step_oracle_equivalence():
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 13))
        g = make_grid(1, (0, 1), n)
        kimpl = bool(rng.integers(0, 2))
        a = float(rng.uniform(0.5, 50.0))
        if kimpl:
            a = max(a, P1.kappa + 0.5)
        prob = ObstacleProblem(
            grid=g, psi=Field(g, rng.normal(scale=0.5, size=n)), a=a,
            b=Field(g, rng.normal(scale=3.0, size=n)), kappa_implicit=kimpl,
            params=P1)
        u_init = Field(g, np.zeros(n))
        u_ref, _ = brute_force_obstacle(prob)
        for solver in (solve_pgs, solve_active_set):
            u, _, _ = solver(prob, u_init)
            worst = max(worst, float(np.max(np.abs(u.values - u_ref.values))))
    elapsed = time.perf_counter() - started
    _verdict(2, "both kernels match the enumeration oracle to 1e-10 on 200 instances in < 30 s",
             worst <= 1e-10 and elapsed < 30.0, f"worst={worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_irreversibility_and_global_obstacle(preset_runs_t5):
    worst_step = 0.0
    worst_gap = 0.0
    for traj in preset_runs_t5.values():
        worst_step = max(worst_step, -float(np.min(traj.step_min_increment)))
        worst_gap = max(worst_gap, -float(np.min(traj.obstacle_gap_min)))
    _verdict(3, "u never decreases per step and never dips below u0 (all presets x schemes, T=5)",
             worst_step <= 1e-12 and worst_gap <= 1e-12,
             f"worst step {worst_step:.2e}, worst obstacle gap {worst_gap:.2e}")


def test_criterion_04_energy_monotonicity(implicit_dt_runs):
    worst = -np.inf
    for traj in implicit_dt_runs.values():
        worst = max(worst, float(np.max(np.diff(traj.series("E")))))
    _verdict(4, "convex-split energy nonincreasing to 1e-12 for dt in {1e-1,1e-2,1e-3}",
             worst <= 1e-12, f"worst rise {worst:.2e}")


def test_criterion_05_eta_monotonicity_and_cap():
    # quadrature oracle first: the continuum budget of the kinked profile
    xs = np.linspace(-1.0, 1.0, 2_000_001)
    prof = np.abs(xs) - 1.0
    quad = float(np.trapezoid((prof**3 - prof) ** 2, xs))
    assert abs(quad - 16 / 105) <= 1e-10
    g = make_grid(1, (-1, 1), 255)
    u0 = make_initial("abs_edge", g, P1)
    traj = run(g, u0, P1, SolverConfig(scheme="implicit_obstacle", dt=0.01,
                                       t_end=5.0, snapshot_stride=100))
    eta = traj.series("eta_l2")
    tol_eta = 1e-6 * (1.0 + float(eta[0]))
    worst_rise = float(np.max(np.diff(eta)))
    cap = 16 / 105 + 0.02
    sup_sq = float(np.max(eta**2))
    rep = check_eta_monotone(traj)
    _verdict(5, "eta norm nonincreasing within tol and eta^2 <= 16/105 + 0.02 on abs_edge n=255",
             rep.passed and worst_rise <= tol_eta and sup_sq <= cap,
             f"worst rise {worst_rise:.2e}, sup eta^2 {sup_sq:.6f} vs {cap:.6f}")


def test_criterion_06_range_preservation():
    g = make_grid(1, (-1, 1), 255)
    worst = -np.inf
    for name in ("abs_edge", "neg_const"):
        u0 = make_initial(name, g, P1)
        traj = run(g, u0, P1, SolverConfig(scheme="implicit_obstacle", dt=0.01,
                                           t_end=5.0, snapshot_stride=100))
        bound = max(np.sqrt(P1.kappa), float(np.max(np.abs(u0.values))))
        worst = max(worst, float(np.max(traj.series("u_linf"))) - bound)
    _verdict(6, "sup |u(t)| stays within max(sqrt(kappa), |u0|_inf) + 1e-8",
             worst <= 1e-8, f"worst excess {worst:.2e}")


def test_criterion_07_comparison_principle():
    g = make_grid(1, (-1, 1), 127)
    worst = 0.0
    for name in ("abs_edge", "neg_const"):
        lo = make_initial(name, g, P1)
        hi = Field(g, np.minimum(lo.values + 0.1, 0.0))
        cfg = SolverConfig(scheme="implicit_obstacle", dt=0.01, t_end=5.0,
                           snapshot_stride=1)
        rep = check_comparison(run(g, lo, P1, cfg), run(g, hi, P1, cfg))
        worst = max(worst, rep.worst_violation)
    _verdict(7, "ordered initial pairs stay ordered to 1e-10 for T=5 (implicit scheme)",
             worst <= 1e-10, f"worst {worst:.2e}")


def test_criterion_08_supersolution_stationarity():
    g = make_grid(1, (0, 1), 127)
    u0 = make_initial("supersolution", g, P1, c=1.0)
    dt_e = cfl_limit(g) / 2
    stride = int(round(1.0 / dt_e))
    configs = [
        SolverConfig(scheme="explicit", dt=dt_e, t_end=10.0, snapshot_stride=stride),
        SolverConfig(scheme="implicit_obstacle", dt=0.01, t_end=10.0, snapshot_stride=100),
        SolverConfig(scheme="yosida", dt=dt_e, t_end=10.0, yosida_lambda=1e-3,
                     snapshot_stride=stride),
    ]
    worst = 0.0
    for cfg in configs:
        traj = run(g, u0, P1, cfg)
        dev = max(float(np.max(np.abs(s.values - u0.values))) for s in traj.snapshots)
        worst = max(worst, dev)
    _verdict(8, "first-eigenfield data stay within 1e-8 of themselves for T=10, all schemes",
             worst <= 1e-8, f"worst drift {worst:.2e}")


def test_criterion_09_convergence_to_equilibrium():
    g = make_grid(1, (-1, 1), 255)
    u0 = make_initial("abs_edge", g, P1)
    started = time.perf_counter()
    traj = run(g, u0, P1, SolverConfig(scheme="implicit_obstacle", dt=0.05,
                                       t_end=50.0, snapshot_stride=200))
    eq, _, report = solve_equilibrium(g, u0, P1, traj.final_state(), tol=1e-6)
    elapsed = time.perf_counter() - started
    dist = float(np.max(np.abs(traj.final_state().values - eq.values)))
    res = report.max_entry()
    _verdict(9, "T=50 state matches the polished stationary solution (n=255, < 2 min)",
             dist <= 1e-5 and res <= 1e-6 and elapsed < 120.0,
             f"dist {dist:.2e}, residuals {res:.2e}, {elapsed:.1f}s")


def test_criterion_10_exponential_rate():
    g = make_grid(1, (0, 1), 127)
    u0 = make_initial("bump", g, P1, center=0.5, width=0.25, height=0.2)
    sigma = sigma_rate(g, u0, P1)
    assert sigma > 0
    c_const = norm_lp(g, positive_part(residual(g, u0, P1)), 2)
    traj = run(g, u0, P1, SolverConfig(scheme="explicit", dt=2.0**-16, t_end=5.0,
                                       snapshot_stride=2**16))
    rate = fit_decay_rate(traj, 0.5, 5.0)
    eq, _, _ = solve_equilibrium(g, u0, P1, traj.final_state(), tol=1e-6)
    ok_dist = True
    worst_pair = ""
    for t in (1.0, 2.0, 3.0, 4.0, 5.0):
        dist = norm_lp(g, Field(g, traj.state_at_time(t).values - eq.values), 2)
        bound = (c_const / sigma) * np.exp(-sigma * t) * 1.1
        if dist > bound:
            ok_dist = False
            worst_pair = f"t={t}: {dist:.2e} > {bound:.2e}"
    _verdict(10, "rate fit >= 0.85*sigma and distance under (C/sigma)exp(-sigma t) * 1.1",
             rate >= 0.85 * sigma and ok_dist,
             worst_pair or f"rate {rate:.2f} vs sigma {sigma:.2f}")


def test_criterion_11_yosida_convergence(tmp_path):
    dt = (1.0 / 64.0) ** 2 / 4.0
    doc = {
        "kind": "yosida_lambda",
        "domain": {"dim": 1, "endpoints": [0, 1], "n_interior": 63},
        "model": {"kappa": 1.0},
        "initial": {"preset": "bump", "center": 0.5, "width": 0.3, "height": 0.4},
        "base_solver": {"dt": dt, "t_end": 2.0, "snapshot_stride": 2**13},
        "reference_solver": {"dt": 2.0**-10, "t_end": 2.0, "snapshot_stride": 2**9},
        "lambdas": [1e-1, 1e-2, 1e-3],
        "outputs": {"directory": str(tmp_path / "sweep")},
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(doc))
    code = main(["sweep", "--config", str(cfg_path), "--quiet"])
    agg = json.loads((tmp_path / "sweep" / "sweep.json").read_text())
    e = agg["errors"]
    ok = (code == 0 and e[0] > e[1] > e[2] and e[2] <= 0.3 * e[0])
    _verdict(11, "regularization errors strictly decreasing with e(1e-3) <= 0.3 e(1e-1)",
             ok, f"errors {[f'{x:.3e}' for x in e]}")


def test_criterion_12_absorbing_entry():
    g = make_grid(1, (-1, 1), 127)
    presets = [
        make_initial("abs_edge", g, P1),
        make_initial("zero", g, P1),
        make_initial("neg_const", g, P1),
        make_initial("supersolution", g, P1, c=1.0),
        make_initial("bump", g, P1, center=0.0, width=0.5, height=0.3),
    ]
    cfg = SolverConfig(scheme="implicit_obstacle", dt=0.02, t_end=20.0,
                       snapshot_stride=100)
    trajs = [run(g, u0, P1, cfg) for u0 in presets]
    r_level = max(dr_value(g, u0, P1) for u0 in presets)
    c_hat = max(check_dissipation(t, P1).details["c_hat"] for t in trajs)
    m0 = -energy_floor(g, P1)
    phi_bound = c_hat / (2 * P1.kappa) + 1.0
    c_bound = 2 * P1.kappa * m0 + r_level + c_hat / (2 * P1.kappa) + 1.0
    rep = check_absorbing(trajs, P1, c_bound, phi_bound)
    entries = rep.details["entry_times"]
    _verdict(12, "five-preset family enters one calibrated box and stays through T=20",
             rep.passed and all(np.isfinite(t) for t in entries),
             f"entry times {entries}, box ({c_bound:.2f}, {phi_bound:.2f})")


def test_criterion_13_dissipation_envelope(implicit_dt_runs):
    worst = -np.inf
    finite = True
    for traj in implicit_dt_runs.values():
        rep = check_dissipation(traj, P1)
        finite = finite and np.isfinite(rep.details["c_hat"])
        worst = max(worst, rep.worst_violation)
    _verdict(13, "per-step forcing bounded and phi under its exponential envelope + 1e-6",
             finite and worst <= 1e-6, f"worst excess {worst:.2e}")
