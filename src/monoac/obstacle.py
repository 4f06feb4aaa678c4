"""Constrained solve kernels for lower-obstacle problems with a cubic term.

All kernels target one complementarity system on the interior nodes:

    u >= psi,   G(u) := a*u - lap(u) + u^3 - [kappa*u] - b >= 0,   (u - psi)*G(u) = 0,

with multiplier eta_hat = -G(u) <= 0 supported on the contact set.  The same
form covers a backward-Euler step (a = 1/dt, obstacle = previous state) and
the stationary problem (a = 0, obstacle = initial datum, polish mode only).

Three routes are provided: projected nonlinear Gauss-Seidel, the primal-dual
active set as a semismooth Newton method (one linear solve per pass, with
projected Gauss-Seidel behind it), and an exhaustive active-set enumeration
usable as an oracle on tiny problems.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import asdict, dataclass

import numpy as np

from ._linsolve import LinearSolveError, solve_shifted
from .grid import Field, Grid, lap_array
from .model import ModelParams

__all__ = [
    "ObstacleProblem",
    "ComplementarityReport",
    "KernelError",
    "solve_pgs",
    "solve_active_set",
    "brute_force_obstacle",
    "solve_equilibrium",
    "complementarity_report",
]


# semismooth Newton and PGS defaults, also SolverConfig's
NEWTON_TOL, NEWTON_MAX_ITER, PGS_TOL, PGS_MAX_ITER = 1e-10, 50, 1e-11, 100_000
EQUILIBRIUM_TOL = 1e-6  # solve_equilibrium's default, also `monoac equilibrium`'s


class KernelError(RuntimeError):
    """A constrained solve failed."""


@dataclass(frozen=True)
class ObstacleProblem:
    """One lower-obstacle instance; see the module docstring for the system."""

    grid: Grid
    psi: Field
    a: float
    b: Field
    kappa_implicit: bool
    params: ModelParams

    def __post_init__(self):
        if self.a < 0:
            raise ValueError(f"mass coefficient a must be >= 0, got {self.a}")
        if self.psi.grid != self.grid or self.b.grid != self.grid:
            raise ValueError("obstacle/source fields are not on the problem grid")

    @property
    def nonconvex(self) -> bool:
        # the -kappa*u term makes the a = 0 problem indefinite
        return self.a == 0.0 and self.kappa_implicit

    def diag_shift(self) -> float:
        """Linear diagonal coefficient a - [kappa], before the stencil and cubic parts."""
        return self.a - (self.params.kappa if self.kappa_implicit else 0.0)

    def stationarity(self, v: np.ndarray) -> np.ndarray:
        """G(v) = a*v - lap(v) + v^3 - [kappa*v] - b."""
        return self.diag_shift() * v - lap_array(self.grid, v) + v * v * v - self.b.values


@dataclass(frozen=True)
class ComplementarityReport:
    """Max-norm residuals of a returned (u, eta_hat) pair."""

    primal_violation: float
    dual_violation: float
    gap: float
    stationarity_residual: float

    def max_entry(self) -> float:
        return max(self.primal_violation, self.dual_violation, self.gap,
                   self.stationarity_residual)

    def to_dict(self) -> dict:
        return asdict(self)


def _cubic_root(c: float, q: np.ndarray) -> np.ndarray:
    """Unique real root of s^3 + c*s = q for c > 0, entrywise (closed form plus polish)."""
    disc = np.sqrt(0.25 * q * q + (c**3) / 27.0)
    s = np.cbrt(0.5 * q + disc) - np.cbrt(disc - 0.5 * q)
    for _ in range(2):
        s -= (s * s * s + c * s - q) / (3.0 * s * s + c)
    return s


def _multiplier(resid: np.ndarray, contact: np.ndarray) -> np.ndarray:
    """Multiplier -G supported on the contact set, projected onto eta <= 0."""
    return np.where(contact, np.minimum(-resid, 0.0), 0.0)


def solve_pgs(prob: ObstacleProblem, u_init: Field, tol: float = PGS_TOL,
              max_iter: int = PGS_MAX_ITER):
    """Projected nonlinear Gauss-Seidel in red-black order (Cryer 1971).

    A sweep updates the nodes of even index sum, then those of odd index sum;
    no two nodes of one colour are neighbours, so each half-sweep solves every
    node's scalar cubic stationarity equation exactly at once and projects it
    onto [psi_i, inf).  Terminates when a full sweep moves no node by more than
    tol; returns (solution, multiplier, sweeps).  If max_iter sweeps are
    exhausted the best iterate is returned with sweeps == max_iter.
    """
    g = prob.grid
    psi = prob.psi.values
    b = prob.b.values
    centre = 2.0 * sum(1.0 / (h * h) for h in g.h)
    c_hat = prob.diag_shift() + centre
    if c_hat <= 0:
        raise KernelError(f"nodewise coefficient {c_hat} <= 0; instance too nonconvex for sweeps")
    parity = np.indices(g.shape).sum(axis=0).reshape(-1) % 2
    colours = [np.flatnonzero(parity == k) for k in (0, 1)]
    u = np.maximum(u_init.values.copy(), psi)
    sweeps = 0
    for sweeps in range(1, max_iter + 1):
        max_change = 0.0
        for idx in colours:
            # the neighbour sum lap u + centre * u, at this colour's nodes
            q = b[idx] + (lap_array(g, u) + centre * u)[idx]
            new = np.maximum(_cubic_root(c_hat, q), psi[idx])
            max_change = max(max_change, np.max(np.abs(new - u[idx]), initial=0.0))
            u[idx] = new
        if max_change <= tol:
            break
    eta = _multiplier(prob.stationarity(u), u <= psi)
    return Field(g, u), Field(g, eta), sweeps


def solve_active_set(prob: ObstacleProblem, u_init: Field, tol: float = NEWTON_TOL,
                     newton_max_iter: int = NEWTON_MAX_ITER, pgs_tol: float = PGS_TOL,
                     pgs_max_iter: int = PGS_MAX_ITER):
    """Primal-dual active set as a semismooth Newton method (Hintermueller, Ito, Kunisch 2002).

    Each pass first tests the KKT system of the iterate it holds (stationarity
    off the current set and wrong-signed multiplier mass on it below tol,
    u >= psi) and returns if it holds.  Only then does it guess the contact set
    {G(u) + psi - u > 0}, pin u to psi on it and take one damped Newton step
    for G = 0 off it.  A guess is adopted only if it is new or the current set
    is solved (stationarity below tol), which keeps full steps from alternating
    between two sets; guessing a solved set again is a cycle.  Contact can
    release as a front moving one node per set along an axis (kinked data do
    exactly this), so at most max(60, 2 * max(grid shape)) sets are adopted;
    newton_max_iter bounds the steps on one set.  A cycle, a spent budget or a
    failed step falls back to solve_pgs with pgs_tol and pgs_max_iter.  The
    count returned is the sets adopted, or after a fallback PGS's sweeps.
    """
    g = prob.grid
    budget = max(60, 2 * max(g.shape))
    psi = prob.psi.values
    shift = prob.diag_shift()
    u = np.maximum(u_init.values, psi)
    resid = prob.stationarity(u)
    primal_tol = 1e-13 * (1.0 + float(np.max(np.abs(psi))))
    solved = {}  # 8-byte digest of each adopted set -> its inner problem reached tol
    current, norm = None, np.inf  # norm: stationarity off the current set
    adopted = newton_steps = 0
    while True:
        if (norm <= tol and float(np.max(-resid[active], initial=0.0)) <= max(tol, 1e-12)
                and float(np.max(psi - u)) <= primal_tol):
            return Field(g, np.maximum(u, psi)), Field(g, _multiplier(resid, active)), adopted
        guess = (resid + (psi - u)) > 0.0  # ties classified inactive
        key = hashlib.blake2b(guess.tobytes(), digest_size=8).digest()
        if key != current and (key not in solved or norm <= tol):
            if solved.get(key) or adopted == budget:
                break  # a solved set guessed again (cycling), or the set budget spent
            active, free, current = guess, ~guess, key
            solved[key] = False
            adopted += 1
            newton_steps = 0
            u = np.where(active, psi, u)
            resid = prob.stationarity(u)
            norm = float(np.max(np.abs(resid[free]), initial=0.0))
        if norm <= tol:
            if solved[current]:
                break  # the solved set is guessed again: cycling
            solved[current] = True
            continue
        if newton_steps == newton_max_iter:
            break
        newton_steps += 1
        try:
            delta = solve_shifted(g, shift + 3.0 * u * u, np.where(free, -resid, 0.0),
                                  fixed=active)
        except LinearSolveError:
            break
        step = 1.0
        while step > 1e-12:
            trial = u + step * delta
            trial_resid = prob.stationarity(trial)
            trial_norm = float(np.max(np.abs(trial_resid[free]), initial=0.0))
            if trial_norm < norm:
                break
            step *= 0.5
        else:
            break
        u, resid, norm = trial, trial_resid, trial_norm
    return solve_pgs(prob, Field(g, np.maximum(u, psi)), tol=pgs_tol, max_iter=pgs_max_iter)


def brute_force_obstacle(prob: ObstacleProblem):
    """Enumerate every active set on a tiny convex instance and verify KKT.

    Usable as an oracle only: requires at most 12 interior nodes and refuses
    instances whose a = 0 operator carries the destabilizing -kappa*u term.
    Newton runs on all 2^n sets at once, each set's nodes pinned to psi by
    identity rows and columns, to 1e-13 off them in at most 80 steps; a set
    whose iterate passes 1e8 is dropped.  Returns the first verified
    (u, eta_hat) in itertools.product order (unique, for convex instances).
    """
    g = prob.grid
    n = g.n_nodes
    if n > 12:
        raise ValueError(f"enumeration oracle limited to 12 nodes, got {n}")
    if prob.nonconvex:
        raise KernelError("a = 0 instance with the kappa term inside may be nonconvex; refusing")
    psi = prob.psi.values
    eye = np.eye(n)
    dense = prob.diag_shift() * eye - lap_array(g, eye)  # the stencil is symmetric
    active = np.array(list(itertools.product((False, True), repeat=n)), dtype=bool)
    # each set's linear part, with identity rows and columns on its pinned nodes
    base = np.where(active[:, :, None] | active[:, None, :], eye, dense)
    u = np.tile(psi, (len(active), 1))
    converged = np.zeros(len(active), dtype=bool)
    live = np.arange(len(active))
    for k in range(81):  # 81 convergence tests around at most 80 Newton steps
        res = np.where(active[live], 0.0, prob.stationarity(u[live]))
        done = np.max(np.abs(res), axis=1) <= 1e-13
        converged[live[done]] = True
        live = live[~done]
        if k == 80 or not live.size:
            break
        jac = base[live]
        jac.reshape(len(live), -1)[:, ::n + 1] += np.where(active[live], 0.0, 3.0 * u[live] ** 2)
        u[live] += np.linalg.solve(jac, -res[~done, :, None])[..., 0]
        live = live[np.max(np.abs(u[live]), axis=1) <= 1e8]
    sets = np.flatnonzero(converged)
    u, active = u[sets], active[sets]
    resid = prob.stationarity(u)
    ok = ((np.max(np.where(active, -resid, -np.inf), axis=1) <= 1e-10)
          & (np.max(np.where(active, -np.inf, psi - u), axis=1) <= 1e-10))
    if not ok.any():
        raise KernelError("no active set verifies KKT; nonconvex instance or tolerances too tight")
    i = np.argmax(ok)
    return Field(g, np.maximum(u[i], psi)), Field(g, _multiplier(resid[i], active[i]))


def complementarity_report(prob: ObstacleProblem, u: Field,
                           eta: Field) -> ComplementarityReport:
    """Residuals of a candidate solution; stationarity is measured off contact."""
    psi = prob.psi.values
    uv = u.values
    ev = eta.values
    primal = float(max(np.max(psi - uv), 0.0))
    dual = float(max(np.max(ev), 0.0))
    gap = float(np.max(np.abs((uv - psi) * ev)))
    resid = prob.stationarity(uv) + ev
    # on contact the multiplier absorbs the residual; off contact eta is zero
    stationarity = float(np.max(np.abs(resid)))
    return ComplementarityReport(primal, dual, gap, stationarity)


def solve_equilibrium(g: Grid, u0: Field, p: ModelParams, warm_start: Field,
                      tol: float = EQUILIBRIUM_TOL):
    """Polish a near-stationary state into a solution of the stationary system.

    The stationary problem keeps the initial datum as the obstacle and has no
    mass term, so it is solved only as a local polish: the warm start should be
    the long-time state of a run.  If the warm start already satisfies the KKT
    system within tol it is returned unchanged.
    """
    if warm_start.grid != g or u0.grid != g:
        raise ValueError("fields are not on the given grid")
    gap_floor = -1e-10 * (1.0 + float(np.max(np.abs(u0.values))))
    if float(np.min(warm_start.values - u0.values)) < gap_floor:
        raise KernelError("warm start lies below the obstacle; it is not a trajectory state")
    prob = ObstacleProblem(grid=g, psi=u0, a=0.0, b=Field(g, np.zeros(g.n_nodes)),
                           kappa_implicit=True, params=p)
    w = np.maximum(warm_start.values, u0.values)
    eta0 = Field(g, _multiplier(prob.stationarity(w), w <= u0.values))
    candidate = Field(g, w)
    report = complementarity_report(prob, candidate, eta0)
    if report.max_entry() <= tol:
        return candidate, eta0, report
    try:
        u, eta, _ = solve_active_set(prob, candidate, tol=min(tol, NEWTON_TOL),
                                     pgs_tol=min(tol, PGS_TOL))
    except (KernelError, LinearSolveError) as exc:
        raise KernelError("equilibrium polish diverged; advance the trajectory further "
                          "before polishing") from exc
    report = complementarity_report(prob, u, eta)
    if report.max_entry() > tol:
        raise KernelError(f"equilibrium polish stalled at residual {report.max_entry():.3e} > "
                          f"{tol:.1e}; advance the trajectory further before polishing")
    return u, eta, report
