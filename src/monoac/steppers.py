"""Time integration of the monotone flow by three routes.

explicit          forward Euler on u_t = (lap u - u^3 + kappa u)_+
implicit_obstacle backward Euler written as a per-step lower-obstacle problem,
                  convex splitting by default (energy decrease for any dt)
yosida            forward Euler on the resolvent-regularized right-hand side

Every route moves fields upward only, so trajectories are monotone in time
and stay above their initial datum.  Each scheme is one raw step on a (B, n)
array of states (``_raw_step``): ``run`` steps an ensemble with it, and the
public ``step_*`` functions and ``yosida_rhs`` are its B = 1 calls.  A
trajectory records the scalar diagnostics of every step and full field
snapshots on a stride.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._linsolve import LinearSolveError, solve_shifted
from .grid import Field, Grid, NonFiniteError, lap_array, physical_memory
from .model import (
    SNAPSHOT_COLUMNS,
    ModelParams,
    _snapshot_values,
    residual_array,
)
from .obstacle import (NEWTON_MAX_ITER, NEWTON_TOL, PGS_MAX_ITER, PGS_TOL, KernelError,
                       ObstacleProblem, complementarity_report, solve_active_set)

__all__ = [
    "SolverConfig",
    "Trajectory",
    "SolverError",
    "cfl_limit",
    "step_explicit",
    "step_implicit_obstacle",
    "resolvent_jlambda",
    "step_yosida",
    "run",
]

SCHEMES = ("explicit", "implicit_obstacle", "yosida")
SPLITTINGS = ("convex_split", "fully_implicit")
# run() reduces the diagnostics and step statistics of up to DIAG_BLOCK recorded
# states at once, fewer where a buffer of that many ensemble states would pass
# _BLOCK_BYTES: the reduction's temporaries scale with the block, and its cost
# per state levels off near 256 KiB (a 6 x 127 ensemble flushes every 43 steps)
DIAG_BLOCK = 256
_BLOCK_BYTES = 1 << 18
_FAST_FORWARD = True  # run() skips fixed points; off only to test the rows it fills in


class SolverError(RuntimeError):
    """An inner solve failed; carries the partial trajectory and the failing row when known."""

    def __init__(self, message, trajectory=None, member=None):
        super().__init__(message)
        self.trajectory = trajectory
        self.member = member


def cfl_limit(g: Grid) -> float:
    """Largest stable explicit step, 1 / (2 * sum_axis 1/h^2)."""
    return 1.0 / (2.0 * sum(1.0 / (h * h) for h in g.h))


@dataclass(frozen=True)
class SolverConfig:
    scheme: str
    dt: float
    t_end: float
    splitting: str = "convex_split"
    yosida_lambda: float = 1e-2
    newton_tol: float = NEWTON_TOL
    newton_max_iter: int = NEWTON_MAX_ITER
    pgs_tol: float = PGS_TOL
    pgs_max_iter: int = PGS_MAX_ITER
    snapshot_stride: int = 1

    def validate(self, g: Grid, p: ModelParams):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        if self.splitting not in SPLITTINGS:
            raise ValueError(f"unknown splitting {self.splitting!r}; expected one of {SPLITTINGS}")
        for name in ("dt", "t_end", "yosida_lambda", "newton_tol", "pgs_tol"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        for name in ("newton_max_iter", "pgs_max_iter", "snapshot_stride"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if self.scheme in ("explicit", "yosida"):
            limit = cfl_limit(g)
            if self.dt > limit * (1.0 + 1e-12):
                raise ValueError(
                    f"dt={self.dt} violates the stability bound {limit} for scheme {self.scheme}"
                )
        if self.scheme == "implicit_obstacle" and self.splitting == "fully_implicit":
            if not self.dt < 1.0 / p.kappa:
                raise ValueError(
                    f"fully_implicit needs dt < 1/kappa = {1.0 / p.kappa} to keep the step convex"
                )
        n = self.t_end / self.dt
        if not n * STEP_BYTES <= (memory := physical_memory()):  # inf included
            raise ValueError(f"t_end={self.t_end} is {n:.3g} steps of dt={self.dt}, whose "
                             f"per-step series would not fit in the {memory} bytes of "
                             "physical memory")
        if abs(n - round(n)) > 1e-8 * max(1.0, n):
            raise ValueError(f"t_end={self.t_end} is not an integer number of steps of dt={self.dt}")
        if round(n) < 1:
            raise ValueError(f"t_end={self.t_end} is shorter than one step of dt={self.dt}")

    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))

    def snapshot_steps(self) -> np.ndarray:
        """The steps whose states a run stores: every snapshot_stride-th, and the last."""
        n = self.n_steps()
        return np.append(np.arange(0, n, min(self.snapshot_stride, n)), n)


@dataclass
class Trajectory:
    """Time-stamped states plus per-step diagnostics of one run.

    ``diag`` holds one row per recorded time with the columns of
    SNAPSHOT_COLUMNS; the remaining arrays are auxiliary series used by the
    verification checks: per recorded time the full squared residual norm and
    the distance to the initial obstacle, per step the rate norm, the smallest
    increment and the inner iteration count (and implicit's multiplier gap).
    snapshots[j] is the state at snapshot_times[j], a step of
    config.snapshot_steps(); implicit runs keep multipliers[j], the multiplier
    of the step into snapshot_times[j + 1].  Past a fixed point, the later
    snapshots are one shared Field, as are the later multipliers.
    """

    grid: Grid
    params: ModelParams
    config: SolverConfig
    u0: Field
    times: np.ndarray
    diag: np.ndarray
    res_l2sq: np.ndarray
    obstacle_gap_min: np.ndarray
    du_dt_l2: np.ndarray
    step_min_increment: np.ndarray
    inner_iterations: np.ndarray
    snapshot_times: np.ndarray
    snapshots: list[Field]
    multipliers: list[Field] | None = None
    eta_hat_gap_l2: np.ndarray | None = None
    failure: dict | None = None

    def n_steps(self) -> int:
        return len(self.times) - 1

    def series(self, name: str) -> np.ndarray:
        return self.diag[:, SNAPSHOT_COLUMNS.index(name)]

    def final_state(self) -> Field:
        return self.snapshots[-1]

    def state_at_time(self, t: float) -> Field:
        return self.snapshots[snapshot_index(self.snapshot_times, t)]


def snapshot_index(snapshot_times, t: float) -> int:
    """Index of the snapshot stored at time t (to 1e-9 relative); KeyError if none."""
    times = np.asarray(snapshot_times)
    idx = int(np.argmin(np.abs(times - t)))
    if not abs(times[idx] - t) <= 1e-9 * max(1.0, abs(times[idx])):  # nan and inf match none
        raise KeyError(f"no stored snapshot at t={t}")
    return idx


def _raw_step(g: Grid, p: ModelParams, configs: list[SolverConfig]):
    """The scheme of configs, one per row, as one step of a (B, n) array of states.

    Validates every config and returns (step, state): step(u, r, state) ->
    (u_next, stats), and the state carried into the first step.  r is the
    residual of u, which only explicit reads (None for the others); state lists
    the per-row arrays carried between steps: yosida's lambdas, then its
    resolvent warm start and that start's image, None until the first step
    replaces them.  stats are yosida's rates, implicit's multipliers and inner
    iterations per row, or None.  A SolverError names its row as ``member``.
    """
    for c in configs:
        c.validate(g, p)  # dt positive, finite and, for explicit and yosida, stable
    cfg = configs[0]
    dt = cfg.dt
    state = []
    if cfg.scheme == "explicit":
        def step(u, r, state):
            rate = np.maximum(r, 0.0)
            return np.add(np.multiply(rate, dt, out=rate), u, out=rate), None
    elif cfg.scheme == "yosida":
        state = [np.array([np.full(g.n_nodes, c.yosida_lambda) for c in configs]), None, None]

        def step(u, r, state):
            lam = state[0]
            state[1:] = _resolvent_raw(g, u, lam, cfg.newton_tol, cfg.newton_max_iter, *state[1:])
            # (u - w)/lam equals -lap(w) + w^3 exactly at the solve, but this form
            # does not re-amplify the Newton tolerance through the stencil
            rate = np.maximum(p.kappa * u - (u - state[1]) / lam, 0.0)
            return u + dt * rate, rate
    else:
        def step(u, r, state):
            done = []  # per row: (u_next, multiplier, inner iterations)
            for i, row in enumerate(u):
                try:
                    done.append(_implicit_step(g, row, p, cfg))
                except SolverError as exc:
                    exc.member = i
                    raise
            u_next, etas, iters = zip(*done)
            return np.array(u_next), (etas, iters)
    return step, state


def _step_once(g: Grid, u: Field, p: ModelParams, scheme: str, dt: float, **options):
    """(u_next, stats) of the raw step of a scheme from the single state u."""
    step, state = _raw_step(g, p, [SolverConfig(scheme, dt, dt, **options)])
    v = u.values[None]
    return step(v, residual_array(g, v, p) if scheme == "explicit" else None, state)


def step_explicit(g: Grid, u: Field, p: ModelParams, dt: float) -> Field:
    """One forward-Euler step; never moves a node downward."""
    return Field(g, _step_once(g, u, p, "explicit", dt)[0])


def _implicit_step(g, u_prev: np.ndarray, p, cfg: SolverConfig):
    # convex_split takes kappa*u explicitly; fully_implicit does not (convex for dt < 1/kappa)
    b = u_prev * (1.0 / cfg.dt + p.kappa) if cfg.splitting == "convex_split" else u_prev / cfg.dt
    try:  # a Field that is not finite means the state left the finite range
        prob = ObstacleProblem(grid=g, psi=Field(g, u_prev), a=1.0 / cfg.dt, b=Field(g, b),
                               kappa_implicit=cfg.splitting == "fully_implicit", params=p)
        u_next, eta_hat, iters = solve_active_set(
            prob, prob.psi, tol=cfg.newton_tol, newton_max_iter=cfg.newton_max_iter,
            pgs_tol=cfg.pgs_tol, pgs_max_iter=cfg.pgs_max_iter)
    except (KernelError, LinearSolveError, NonFiniteError) as exc:
        raise SolverError(f"implicit step failed: {exc}") from exc
    report = complementarity_report(prob, u_next, eta_hat)
    if report.max_entry() > 1e3 * max(cfg.newton_tol, cfg.pgs_tol):
        raise SolverError(f"implicit step stalled after {iters} sweeps at residual "
                          f"{report.max_entry():.3e}")
    return u_next.values, eta_hat, iters


def step_implicit_obstacle(g: Grid, u_prev: Field, p: ModelParams, dt: float,
                           splitting: str = "convex_split"):
    """One backward-Euler step solved as a lower-obstacle problem.

    Returns (u_next, multiplier) with u_next >= u_prev elementwise, the
    multiplier nonpositive and supported where the step did not move.
    """
    u_next, (etas, _) = _step_once(g, u_prev, p, "implicit_obstacle", dt, splitting=splitting)
    return Field(g, u_next), etas[0]


def _resolvent_raw(g: Grid, v: np.ndarray, lam: np.ndarray, tol: float, max_iter: int,
                   w0: np.ndarray | None = None, tw0: np.ndarray | None = None):
    """Newton solve of w + lam*(-lap w + w^3) = v per row of a (B, n) v; monotone.

    Returns w and its image tw = w + lam*(w^3 - lap w).  lam is shaped like v, each
    row full of its lambda (numpy broadcasts a column slower).  A warm start w0 may
    come with the image tw0 its solve returned: the residual tw0 - v is a fresh
    stencil's bit for bit, so only Newton iterates evaluate the stencil.  Newton runs
    on the rows above tol, their systems solved as one batch; each row halves its
    line-search step until its residual drops.
    """
    def image(x, lam):  # x + lam * (x^3 - lap x), in that operation order
        out = x * x * x - lap_array(g, x)
        out *= lam
        out += x
        return out

    w = (v if w0 is None else w0).copy()
    tw = image(w, lam) if tw0 is None else tw0.copy()
    r = tw - v
    norm = np.maximum.reduce(np.abs(r), -1)
    for it in range(max_iter + 1):
        # row bookkeeping in Python lists: at a few rows it beats array calls
        todo = [i for i, x in enumerate(norm.tolist()) if not x <= tol]  # NaN iterates, and fails
        if not todo:
            return w, tw
        if it == max_iter:
            raise SolverError(f"resolvent Newton stopped at residual {norm[todo[0]]:.3e} > "
                              f"{tol:.1e}", member=todo[0])
        if len(todo) == len(w):  # every row iterates: no copies
            rows, wa, ra, la, va = None, w, r, lam, v
        else:
            rows = np.array(todo)
            wa, ra, la, va = w[rows], r[rows], lam[rows], v[rows]
        try:
            delta = solve_shifted(g, 1.0 / la + 3.0 * wa * wa, -ra / la)
        except LinearSolveError as exc:
            raise SolverError(f"resolvent linear solve failed: {exc}",
                              member=todo[exc.row or 0]) from exc
        step, trial = 1.0, wa + delta
        while True:
            tr = (ti := image(trial, la)) - va
            tn = np.maximum.reduce(np.abs(tr), -1)
            better = tn < (norm if rows is None else norm[rows])
            if rows is None:
                if all(better.tolist()):
                    w, tw, r, norm = trial, ti, tr, tn
                    break
                rows = np.arange(len(w))
            done = rows[better]
            w[done], tw[done] = trial[better], ti[better]
            r[done], norm[done] = tr[better], tn[better]
            keep = ~better
            rows, wa, la, va, delta = rows[keep], wa[keep], la[keep], va[keep], delta[keep]
            if not len(rows):
                break
            step *= 0.5
            if not step > 1e-12:
                raise SolverError("resolvent Newton line search exhausted", member=int(rows[0]))
            trial = wa + step * delta


def resolvent_jlambda(g: Grid, v: Field, lam: float) -> Field:
    """Resolve w + lam*(-lap w + w^3) = v; unique by monotonicity."""
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam}")
    return Field(g, _resolvent_raw(g, v.values[None], np.full((1, g.n_nodes), lam),
                                   NEWTON_TOL, NEWTON_MAX_ITER)[0])


def yosida_rhs(g: Grid, u: Field, p: ModelParams, lam: float) -> Field:
    """Regularized rate (kappa*u - (u - w)/lam)_+ with w the resolvent of u: step_yosida's rate."""
    return Field(g, _step_once(g, u, p, "yosida", cfl_limit(g), yosida_lambda=lam)[1])


def step_yosida(g: Grid, u: Field, p: ModelParams, dt: float, lam: float) -> Field:
    """One forward-Euler step of the regularized flow; monotone like the others."""
    return Field(g, _step_once(g, u, p, "yosida", dt, yosida_lambda=lam)[0])


# bytes per step of one member's per-step arrays in run(): times, the diagnostics row,
# res_l2sq, gap_min, du_dt_l2, min_inc, inner and eta_gap
STEP_BYTES = 8 * (1 + len(SNAPSHOT_COLUMNS) + 6)


def run(g: Grid, u0, p: ModelParams, cfg):
    """Integrate from t = 0 to t_end, recording diagnostics every step.

    u0 is one Field, or a sequence of Fields on g: an ensemble of members that
    share the grid and the parameters.  cfg is one SolverConfig for every
    member, or a sequence with one per member that may differ in yosida_lambda
    only; each Trajectory carries its member's config.  The members advance
    together as the rows of one (B, n) array, so per-step overhead is paid once
    per step rather than once per member; a single Field is the B = 1 case.
    Returns one Trajectory, or a list with one per member.

    A member whose step moves no node (u_next == u bitwise) is at a fixed point:
    every later step repeats it (yosida's carried resolvent image then gives the
    residual its last solve accepted, so it meets tol after zero iterations).
    Such a member is finished at the state it froze at: it is no longer
    stepped, its later rows are copies of its last (t from times), every later
    snapshot due is one Field of that state (and every later multiplier the one
    of the step into it), and the loop ends once no member moves.

    The eta column of the diagnostics always comes from the instantaneous
    state (eta = min(r, 0)), independent of the scheme; the implicit scheme
    additionally records its step multipliers' gap to that eta every step, and
    keeps the multiplier of the step into each stored snapshot after the first.
    Diagnostics rows, rate norms, smallest increments and multiplier gaps are
    reduced a block of recorded states at a time, with the residuals taken per
    block for every scheme but explicit, whose step reads them; a step only
    sums its squared increments, for the finite and fixed-point tests.
    """
    single = isinstance(u0, Field)
    members = [u0] if single else list(u0)
    if not members:
        raise ValueError("empty ensemble")
    if any(m.grid != g for m in members):
        raise ValueError("initial field is not on the given grid")
    configs = [cfg] * len(members) if isinstance(cfg, SolverConfig) else list(cfg)
    cfg = configs[0]
    if len(configs) != len(members) or any(
            replace(c, yosida_lambda=cfg.yosida_lambda) != cfg for c in configs):
        raise ValueError("give one solver config, or one per member differing in "
                         "yosida_lambda only")
    step, state = _raw_step(g, p, configs)
    n_steps, dt = cfg.n_steps(), cfg.dt
    due = cfg.snapshot_steps().tolist()  # the states each member stores
    explicit, implicit = cfg.scheme == "explicit", cfg.scheme == "implicit_obstacle"
    n_members = len(members)
    u = init = np.stack([m.values for m in members])  # the moving members' states, one row each
    active = np.arange(n_members)  # the member of each row of u
    w_cell = g.cell_volume

    times = dt * np.arange(n_steps + 1)
    # per recorded state k; the per-step series hold the step into state k (0: none)
    diag = np.empty((n_members, n_steps + 1, len(SNAPSHOT_COLUMNS)))
    res_l2sq, gap_min = np.empty((2, n_members, n_steps + 1))
    du_dt_l2, min_inc = np.zeros((2, n_members, n_steps + 1))
    inner = np.zeros((n_members, n_steps + 1), dtype=int)
    snapshots: list[list[Field]] = [[] for _ in members]
    multipliers = [[] for _ in members] if implicit else None
    eta_gap = np.zeros((n_members, n_steps + 1)) if implicit else None

    def buffers(last: np.ndarray):  # sized to the moving rows, so re-made at a freeze
        # recorded states, copied in until their rows are computed; slot j of states
        # holds state flushed + j - 1, slot 0 the last one flushed.  Slot j of aux holds
        # state flushed + j's residual (explicit) or the multipliers of the step into it
        # (implicit; zero for state 0, which no step leads to)
        block = max(1, min(DIAG_BLOCK, _BLOCK_BYTES // last.nbytes))
        return block, np.repeat(last[None], block + 1, axis=0), np.zeros((block,) + last.shape)

    block, states, aux = buffers(u)
    flushed = pending = 0  # states before `flushed` have their rows; `pending` more are buffered

    def flush():
        nonlocal flushed, pending
        if not pending:
            return
        stop = flushed + pending
        uv = states[1:pending + 1]
        r = aux[:pending] if explicit else residual_array(g, uv, p)
        values = _snapshot_values(g, uv, p, times[flushed:stop, None], r=r)
        diag[active, flushed:stop] = values.swapaxes(0, 1)
        res_l2sq[active, flushed:stop] = (w_cell * (r * r).sum(axis=-1)).T
        gap_min[active, flushed:stop] = (uv - init[active]).min(axis=-1).T
        if implicit:
            eta_gap[active, flushed:stop] = np.sqrt(
                w_cell * np.sum((aux[:pending] - np.minimum(r, 0.0)) ** 2, axis=-1)).T
        delta = states[1:pending + 1] - states[:pending]  # the steps into the buffered states
        min_inc[active, flushed:stop] = delta.min(axis=-1).T
        np.multiply(delta, delta, out=delta)
        du_dt_l2[active, flushed:stop] = (np.sqrt(w_cell * delta.sum(axis=-1)) / dt).T
        states[0] = states[pending]
        flushed = stop
        pending = 0

    def trajectory(b: int, k: int, failure: dict | None = None) -> Trajectory:
        return Trajectory(
            grid=g, params=p, config=configs[b], u0=members[b],
            times=times[: k + 1], diag=diag[b, : k + 1],
            res_l2sq=res_l2sq[b, : k + 1], obstacle_gap_min=gap_min[b, : k + 1],
            du_dt_l2=du_dt_l2[b, 1:k + 1], step_min_increment=min_inc[b, 1:k + 1],
            inner_iterations=inner[b, 1:k + 1],
            snapshot_times=times[due[:len(snapshots[b])]], snapshots=snapshots[b],
            multipliers=None if multipliers is None else multipliers[b],
            eta_hat_gap_l2=None if eta_gap is None else eta_gap[b, 1:k + 1],
            failure=failure,
        )

    def fail(b: int, k: int, message: str, detail: str) -> SolverError:
        flush()
        if n_members > 1:
            message = f"member {b}: {message}"
        partial = trajectory(b, k, {"step": k, "message": detail})
        return SolverError(message, trajectory=partial)

    r = None  # the residual of u, which only the explicit step reads
    stopped = None  # per row: its last step moved no node (None: some node moved in each)
    stored = 0  # due[stored] is the next state to store
    for k in range(n_steps + 1):
        if explicit:  # record state k
            r = aux[pending] = residual_array(g, u, p)
        pending += 1
        states[pending] = u
        if k == due[stored]:  # with the multiplier of the step into it (none into state 0)
            for i, b in enumerate(active.tolist()):
                snapshots[b].append(Field(g, u[i].copy()))
                if implicit and k:
                    multipliers[b].append(etas[i])
            stored += 1
        if pending == block or k == n_steps:
            flush()
        if k == n_steps:
            break
        if stopped is not None and stopped.any():  # finish the members that did not move:
            flush()  # each later state due is state k, one Field, as is its multiplier
            later = len(due) - stored
            done = active[stopped]  # their later rows repeat row k, t from times
            for a in [diag, res_l2sq, gap_min, du_dt_l2, min_inc, inner] + [eta_gap] * implicit:
                a[done, k + 1:] = a[done, k:k + 1]
            diag[done, k + 1:, SNAPSHOT_COLUMNS.index("t")] = times[k + 1:]
            for i, b in zip(np.flatnonzero(stopped).tolist(), done.tolist()):
                snapshots[b] += [Field(g, u[i].copy())] * later
                if implicit:
                    multipliers[b] += [etas[i]] * later
            moved = ~stopped
            u, r, active = u[moved], r[moved] if explicit else None, active[moved]
            state = [a[moved] for a in state]
            if not len(active):
                break
            block, states, aux = buffers(u)  # u is state k, the last one flushed
        try:
            u_next, stats = step(u, r, state)
        except SolverError as exc:
            b = int(active[exc.member or 0])
            raise fail(b, k, str(exc), str(exc)) from exc
        if implicit:  # the rows' multipliers, recorded with state k + 1, and inner iterations
            etas, inner[active, k + 1] = stats
            aux[pending] = [eta.values for eta in etas]
        # Sigma delta^2 per row is the one per-step reduction; the rate norm and the
        # smallest increment are computed at flush from the buffered states
        delta = u_next - u
        rates = [math.sqrt(w_cell * s) / dt for s in np.add.reduce(delta * delta, -1).tolist()]
        if not all(map(math.isfinite, rates)):
            i = next(i for i, x in enumerate(rates) if not math.isfinite(x))
            raise fail(int(active[i]), k, f"state left the finite range at step {k}",
                       "non-finite state")
        # only a zero rate norm can mean that no node moved (or it underflowed)
        stopped = ~delta.any(axis=-1) if _FAST_FORWARD and 0.0 in rates else None
        u = u_next

    trajs = [trajectory(b, n_steps) for b in range(n_members)]
    return trajs[0] if single else trajs
