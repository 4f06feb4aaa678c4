"""Trajectory checks: monotonicity, energy laws, range, decay rates, absorbing entry.

Every check is a pure function of immutable trajectory data and returns a
CheckReport whose pass flag is exactly ``worst_violation <= tolerance``.
Checks that combine clauses with different tolerances report the worst
violation as a ratio against its own clause tolerance (tolerance 1.0).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .grid import Field, h1_grad_sq, lap_array, norm_lp
from .model import ModelParams
from .obstacle import EQUILIBRIUM_TOL
from .steppers import SolverConfig, Trajectory, run

__all__ = [
    "CheckReport",
    "check_monotone",
    "check_energy_decrease",
    "check_eta_monotone",
    "check_range",
    "check_comparison",
    "check_dissipation",
    "fit_decay_rate",
    "check_equilibrium",
    "check_absorbing",
    "check_smoothing",
    "snapshot_error",
    "yosida_sweep",
    "check_yosida_convergence",
    "check_energy_flux",
    "check_gradient_flux",
    "settling_time",
    "SINGLE_TRAJECTORY_CHECKS",
    "run_checks",
    "error_report",
]


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    worst_violation: float
    tolerance: float
    location: float | None
    details: dict

    def to_dict(self) -> dict:
        return asdict(self)


def _report(name, worst, tol, location=None, **details) -> CheckReport:
    worst = float(worst)
    return CheckReport(name=name, passed=bool(worst <= tol), worst_violation=worst,
                       tolerance=float(tol), location=location, details=details)


def error_report(name: str, exc: Exception) -> CheckReport:
    """The failed report of a check that could not run, its error in the details."""
    return _report(name, float("inf"), 0.0, error=str(exc))


def _snapshot_pairs(traj: Trajectory):
    return zip(traj.snapshots[:-1], traj.snapshots[1:], traj.snapshot_times[1:])


def check_monotone(traj: Trajectory, tol: float = 1e-12) -> CheckReport:
    """Fields never decrease in time and never dip below the initial datum.

    The worst of three views: the per-step increments, the per-step gap to
    the initial datum and the stored snapshot pairs, so a snapshot that
    disagrees with the per-step series is caught too.
    """
    # pair by pair: a stacked copy of every snapshot would double their memory
    pair_drops = np.array([np.min(b.values - a.values) for a, b, _ in _snapshot_pairs(traj)])
    views = ((traj.step_min_increment, traj.times[1:]),
             (traj.obstacle_gap_min, traj.times),
             (pair_drops, traj.snapshot_times[1:]))
    worst, loc = 0.0, None
    for drops, times in views:
        if len(drops):
            k = int(np.argmin(drops))
            if -drops[k] > worst:
                worst, loc = -float(drops[k]), float(times[k])
    return _report("monotone", worst, tol, loc)


def check_energy_decrease(traj: Trajectory, tol: float = 1e-12) -> CheckReport:
    """Per-step energy decrease, with the energy-identity defect reported.

    The strict 1e-12 tolerance is guaranteed for the convex-split implicit
    scheme; the explicit schemes satisfy it as well at half the stability
    limit, where the quadratic step error cannot overtake the dissipation.
    """
    d = np.diff(traj.series("E"))
    if not len(d):
        return _report("energy_decrease", 0.0, tol)
    k = int(np.argmax(d))
    dt = float(np.diff(traj.times).mean())
    defect = np.abs(d + dt * traj.du_dt_l2**2)
    return _report("energy_decrease", d[k], tol, float(traj.times[k + 1]),
                   energy_identity_defect_max=float(np.max(defect)))


def _eta_cap_excess(traj: Trajectory) -> tuple[float, float]:
    """(max over t of |eta(t)|_2^2 - |eta(0)|_2^2, |eta(0)|_2^2): the multiplier cap clause."""
    level = float(traj.series("res_neg_l2sq")[0])
    return float(np.max(traj.series("eta_l2") ** 2 - level)), level


def check_eta_monotone(traj: Trajectory, tol: float | None = None) -> CheckReport:
    """Multiplier norm nonincreasing and always below its initial level.

    Tolerance defaults to 1e-6 * (1 + |eta(0)|_2), slack for active-set
    changes that the time discretization resolves only to solver accuracy.
    """
    eta = traj.series("eta_l2")
    tol_eta = 1e-6 * (1.0 + float(eta[0])) if tol is None else tol
    rises = np.diff(eta)
    worst_rise = float(np.max(rises)) if len(rises) else 0.0
    loc = float(traj.times[int(np.argmax(rises)) + 1]) if len(rises) else None
    bound_excess, dr0 = _eta_cap_excess(traj)
    worst = max(worst_rise, bound_excess)
    return _report("eta_monotone", worst, tol_eta, loc,
                   initial_level=dr0, worst_rise=worst_rise,
                   worst_bound_excess=bound_excess)


def check_range(traj: Trajectory, upper_tol: float = 1e-8) -> CheckReport:
    """Range preservation: u0 <= u(t) <= max(sqrt(kappa), |u0|_inf)."""
    if not upper_tol > 0:
        raise ValueError(f"upper_tol must be > 0, got {upper_tol}")
    lower_tol = 1e-12  # for u(t) >= u0
    bound = max(np.sqrt(traj.params.kappa), float(np.max(np.abs(traj.u0.values))))
    linf = traj.series("u_linf")
    upper = float(np.max(linf - bound))
    lower = -float(np.min(traj.obstacle_gap_min))
    worst = max(upper / upper_tol, lower / lower_tol)
    k = int(np.argmax(linf))
    return _report("range", worst, 1.0, float(traj.times[k]),
                   upper_bound=bound, upper_violation=upper, lower_violation=lower,
                   upper_tol=upper_tol, lower_tol=lower_tol)


def check_comparison(traj_lo: Trajectory, traj_hi: Trajectory) -> CheckReport:
    """Ordered initial data stay ordered, to 1e-10, at every common snapshot time."""
    if traj_lo.grid != traj_hi.grid or traj_lo.params != traj_hi.params \
            or traj_lo.config.scheme != traj_hi.config.scheme:
        raise ValueError("comparison requires matching grid, params and scheme")
    if float(np.max(traj_lo.u0.values - traj_hi.u0.values)) > 0:
        raise ValueError("initial data are not ordered low <= high")
    worst, loc = 0.0, None
    pairs = _common_times(traj_hi.snapshot_times, traj_lo.snapshot_times)
    for j, i in pairs:
        v = float(np.max(traj_lo.snapshots[i].values - traj_hi.snapshots[j].values))
        if v > worst:
            worst, loc = v, float(traj_hi.snapshot_times[j])
    if not pairs:
        raise ValueError("trajectories share no snapshot times")
    return _report("comparison", worst, 1e-10, loc, common_times=len(pairs))


def check_dissipation(traj: Trajectory, p: ModelParams | None = None,
                      tol: float = 1e-6) -> CheckReport:
    """Empirical forcing bound and the exponential envelope it implies.

    Estimates C_hat as the largest per-step value of
    |du/dt|_2^2 + d(phi)/dt + 2*kappa*phi and then verifies
    phi(t) <= C_hat/(2k) + exp(-2kt) * (phi(0) - C_hat/(2k)) + tol at every step.
    """
    p = p or traj.params
    phi = traj.series("phi")
    t = traj.times
    dt = np.diff(t)
    d_series = traj.du_dt_l2**2 + np.diff(phi) / dt + 2.0 * p.kappa * phi[:-1]
    c_hat = float(np.max(d_series)) if len(d_series) else 0.0
    c_hat = max(c_hat, 0.0)
    level = c_hat / (2.0 * p.kappa)
    envelope = level + np.exp(-2.0 * p.kappa * t) * (phi[0] - level)
    excess = phi - envelope
    worst = float(np.max(excess))
    loc = float(t[int(np.argmax(excess))])
    return _report("dissipation", worst, tol, loc, c_hat=c_hat, envelope_level=level)


def fit_decay_rate(traj: Trajectory, t_start: float, t_end: float | None = None,
                   return_details: bool = False):
    """Least-squares decay rate of log |du/dt|_2 over [t_start, t_end].

    The window is shortened automatically once the series falls below 1e-8
    times its in-window maximum (the floating-point floor of a frozen state);
    stationary series cannot be fitted and raise ValueError.
    """
    t = traj.times[:-1]
    v = traj.du_dt_l2
    t_end = float(traj.times[-1]) if t_end is None else t_end
    sel = (t >= t_start) & (t <= t_end)
    tw, vw = t[sel], v[sel]
    pos = vw > 0
    if not np.any(pos):
        raise ValueError("rate series is zero on the fit window; nothing to fit")
    vmax = float(np.max(vw[pos]))
    floor = vmax * 1e-8
    below = np.nonzero(vw < floor)[0]
    shortened = False
    if below.size:
        cut = int(below[0])
        tw, vw = tw[:cut], vw[:cut]
        shortened = True
    keep = vw > 0
    tw, vw = tw[keep], vw[keep]
    if len(tw) < 10:
        raise ValueError(
            f"only {len(tw)} usable points in the fit window; series reached the floor too early"
        )
    slope, _ = np.polyfit(tw, np.log(vw), 1)
    rate = -float(slope)
    if return_details:
        return rate, {"points": int(len(tw)), "window": (float(tw[0]), float(tw[-1])),
                      "shortened": shortened, "floor": floor}
    return rate


def check_equilibrium(traj: Trajectory, eq: Field, report,
                      res_tol: float = EQUILIBRIUM_TOL) -> CheckReport:
    """Final state sits on the polished stationary solution (to 1e-5), residuals certified."""
    dist_tol = 1e-5
    dist = float(np.max(np.abs(traj.final_state().values - eq.values)))
    res = float(report.max_entry())
    worst = max(dist / dist_tol, res / res_tol)
    return _report("equilibrium", worst, 1.0, float(traj.times[-1]),
                   distance_inf=dist, complementarity_max=res,
                   dist_tol=dist_tol, res_tol=res_tol)


def check_absorbing(trajs: list[Trajectory], p: ModelParams, c_bound: float,
                    phi_bound: float) -> CheckReport:
    """Each trajectory enters the residual/energy box and never leaves again."""
    if not (c_bound > 0 and phi_bound > 0):
        raise ValueError("bounds must be positive")
    entry_times = []
    worst = 0.0
    for traj in trajs:
        inside = (traj.res_l2sq <= c_bound) & (traj.series("phi") <= phi_bound)
        outside = np.nonzero(~inside)[0]
        if outside.size == 0:
            entry_times.append(0.0)
            continue
        last_out = int(outside[-1])
        if last_out == len(inside) - 1:
            miss = max(float(traj.res_l2sq[-1] - c_bound),
                       float(traj.series("phi")[-1] - phi_bound), 0.0)
            worst = max(worst, miss)
            entry_times.append(float("inf"))
        else:
            entry_times.append(float(traj.times[last_out + 1]))
    return _report("absorbing", worst, 0.0,
                   max((t for t in entry_times if np.isfinite(t)), default=None),
                   entry_times=entry_times, c_bound=c_bound, phi_bound=phi_bound)


def check_smoothing(traj: Trajectory, tol: float = 1e-6) -> CheckReport:
    """Instant regularization: min(t,1)*|lap u|_2 stays bounded, eta stays capped.

    The smoothing constant itself is reported, not thresholded; the pass/fail
    clause is the multiplier cap |eta(t)|_2^2 <= |eta(0)|_2^2 + tol.
    """
    g = traj.grid
    sup_smoothing = 0.0
    for s, t in zip(traj.snapshots, traj.snapshot_times):
        if t == 0.0:
            continue
        lap_l2 = float(np.sqrt(g.cell_volume * np.sum(lap_array(g, s.values) ** 2)))
        sup_smoothing = max(sup_smoothing, min(float(t), 1.0) * lap_l2)
    worst, dr0 = _eta_cap_excess(traj)
    return _report("smoothing", worst, tol, None,
                   smoothing_constant=sup_smoothing, initial_level=dr0,
                   finite=bool(np.isfinite(sup_smoothing)))


def _common_times(times, other) -> list[tuple[int, int]]:
    """Index pairs (i, j) with times[i] == other[j] after rounding to 12 digits."""
    index = {round(float(t), 12): j for j, t in enumerate(other)}
    keys = (round(float(t), 12) for t in times)
    return [(i, index[k]) for i, k in enumerate(keys) if k in index]


def snapshot_error(traj: Trajectory, ref: Trajectory) -> tuple[float, int]:
    """Largest L2 distance from traj to ref over their common snapshot times.

    t = 0 is skipped; returns the error and the number of matched times.
    """
    g = traj.grid
    pairs = [(j, i) for j, i in _common_times(traj.snapshot_times, ref.snapshot_times)
             if traj.snapshot_times[j] != 0.0]
    err = max((norm_lp(g, Field(g, traj.snapshots[j].values - ref.snapshots[i].values), 2)
               for j, i in pairs), default=0.0)
    return err, len(pairs)


YOSIDA_ZERO_ERROR = 1e-12  # errors this small mean frozen data: every route is exact


def yosida_sweep(g, u0: Field, p: ModelParams, cfgs, reference_cfg: SolverConfig):
    """Run a regularization sweep and judge it; returns (members, reference, report).

    cfgs are the members' yosida configs, with strictly decreasing yosida_lambda;
    they step as one ensemble, the reference once.  The report passes when the
    errors against the reference at the common snapshot times after t = 0
    strictly decrease, or are all at most YOSIDA_ZERO_ERROR; its worst violation
    counts the lambda steps whose error did not shrink.  Bad input raises
    ValueError before any stepping.
    """
    cfgs = list(cfgs)
    lambdas = [c.yosida_lambda for c in cfgs]
    if not cfgs or any(b >= a for a, b in zip(lambdas, lambdas[1:])):
        raise ValueError("lambdas must be a non-empty, strictly decreasing sequence")
    if any(c.scheme != "yosida" for c in cfgs):
        raise ValueError("every member must use the yosida scheme")
    times = [c.dt * c.snapshot_steps()[1:] for c in (cfgs[0], reference_cfg)]
    if not _common_times(*times):
        raise ValueError("members and reference share no snapshot time after t = 0")
    members = run(g, [u0] * len(cfgs), p, cfgs)
    reference = run(g, u0, p, reference_cfg)
    errors = [snapshot_error(m, reference)[0] for m in members]
    rises = 0 if max(errors) <= YOSIDA_ZERO_ERROR else \
        sum(b >= a for a, b in zip(errors, errors[1:]))
    report = _report("yosida_convergence", rises, 0.0, None,
                     lambdas=list(map(float, lambdas)), errors=errors)
    return members, reference, report


def check_yosida_convergence(g, u0: Field, p: ModelParams, base_cfg: SolverConfig,
                             lambdas, reference_cfg: SolverConfig | None = None) -> CheckReport:
    """Errors against an implicit reference shrink as the regularization does.

    One yosida member per lambda, each base_cfg with that lambda; see yosida_sweep.
    """
    reference_cfg = reference_cfg or SolverConfig(
        scheme="implicit_obstacle", dt=base_cfg.dt * 16, t_end=base_cfg.t_end,
        snapshot_stride=max(1, base_cfg.snapshot_stride // 16))
    cfgs = [replace(base_cfg, scheme="yosida", yosida_lambda=lam) for lam in lambdas]
    return yosida_sweep(g, u0, p, cfgs, reference_cfg)[2]


def check_energy_flux(traj: Trajectory, slack: float | None = None) -> CheckReport:
    """Integrated residual norm against the initial multiplier budget.

    Discrete form of: E(T) + integral |r|_2^2 dt <= T * |eta(0)|_2^2 + E(0).
    The quadrature is the right-endpoint sum, which matches the backward
    differences of the discrete energy identity; the t = 0 node is excluded
    because kinked initial data have no finite residual norm there in the
    refinement limit.
    """
    e = traj.series("E")
    t = traj.times
    dt = np.diff(t)
    lhs = float(e[-1] + np.sum(dt * traj.res_l2sq[1:]))
    eta0_sq = float(traj.series("res_neg_l2sq")[0])
    rhs = float(t[-1] * eta0_sq + e[0])
    tol = 1e-4 * (1.0 + abs(float(e[0]))) if slack is None else slack
    return _report("energy_flux", lhs - rhs, tol, float(t[-1]),
                   lhs=lhs, rhs=rhs)


def check_gradient_flux(traj: Trajectory) -> CheckReport:
    """Rate-gradient budget for smooth data; needs stride-1 snapshots.

    Discrete form of: integral |grad u_t|_2^2 dt + 0.5*|r(T)|_2^2 + kappa*E(T)
    <= 0.5*|r(0)|_2^2 + kappa*E(0) + slack, slack 1e-4*(1 + |E(0)| + |r(0)|_2^2).
    """
    if traj.config.snapshot_stride != 1:
        raise ValueError("gradient flux check needs snapshot_stride == 1")
    g = traj.grid
    kappa = traj.params.kappa
    dt = float(np.diff(traj.times).mean())
    acc = 0.0
    for a, b, _ in _snapshot_pairs(traj):
        acc += dt * h1_grad_sq(g, (b.values - a.values) / dt)
    e = traj.series("E")
    lhs = acc + 0.5 * float(traj.res_l2sq[-1]) + kappa * float(e[-1])
    rhs = 0.5 * float(traj.res_l2sq[0]) + kappa * float(e[0])
    tol = 1e-4 * (1.0 + abs(float(e[0])) + float(traj.res_l2sq[0]))
    return _report("gradient_flux", lhs - rhs, tol, float(traj.times[-1]),
                   lhs=lhs, rhs=rhs)


def settling_time(traj: Trajectory, eps: float) -> float | None:
    """First time the full residual norm drops to its initial negative-part level.

    Returns the first T with |r(T)|_2^2 <= |r(0)_-|_2^2 + eps, or None if the
    trajectory never settles within its horizon.
    """
    target = float(traj.series("res_neg_l2sq")[0]) + eps
    hits = np.nonzero(traj.res_l2sq <= target)[0]
    return float(traj.times[int(hits[0])]) if hits.size else None


# name -> (check, the keyword that a configured tolerance sets)
SINGLE_TRAJECTORY_CHECKS = {
    "monotone": (check_monotone, "tol"),
    "energy_decrease": (check_energy_decrease, "tol"),
    "eta_monotone": (check_eta_monotone, "tol"),
    "range": (check_range, "upper_tol"),
    "dissipation": (check_dissipation, "tol"),
    "smoothing": (check_smoothing, "tol"),
    "energy_flux": (check_energy_flux, "slack"),
}


def run_checks(traj: Trajectory, requested) -> list[CheckReport]:
    """Run named single-trajectory checks, honoring per-check tolerance overrides."""
    reports = []
    for item in requested:
        if isinstance(item, str):
            name, override = item, None
        else:
            name = item["name"]
            override = item.get("tolerance")
        try:
            check, keyword = SINGLE_TRAJECTORY_CHECKS[name]
        except KeyError:
            raise ValueError(
                f"unknown check {name!r}; expected one of {sorted(SINGLE_TRAJECTORY_CHECKS)}"
            ) from None
        if override is not None and not 0 < override < np.inf:
            raise ValueError(f"check {name!r}: tolerance must be finite and > 0, got {override}")
        reports.append(check(traj, **({} if override is None else {keyword: override})))
    return reports
