"""Double-well nonlinearity, residual, constraint multiplier and energies.

The dynamics only ever move a field upward where the unconstrained Allen-Cahn
right-hand side r = lap(u) - u^3 + kappa*u is positive; the multiplier
eta = -max(-r, 0) = min(r, 0) is the nonpositive part left behind.  Everything
here is a pure function of (grid, field, params).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid, _check_on_grid, h1_grad_sq, lap_array, norm_lp

__all__ = [
    "ModelParams",
    "EnergySnapshot",
    "SNAPSHOT_COLUMNS",
    "w_prime",
    "residual",
    "eta_of",
    "energy",
    "phi_of",
    "dr_value",
    "b0_check",
    "energy_floor",
    "take_snapshot",
]


@dataclass(frozen=True)
class ModelParams:
    """Potential parameter: W(u) = u^4/4 - kappa*u^2/2, so W'(u) = u^3 - kappa*u."""

    kappa: float

    def __post_init__(self):
        if not self.kappa > 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")


SNAPSHOT_COLUMNS = ("t", "E", "phi", "eta_l2", "res_neg_l2sq", "u_l2", "u_l4", "u_linf", "h1")


class EnergySnapshot(namedtuple("EnergySnapshot", SNAPSHOT_COLUMNS)):
    """Per-step scalar diagnostics of a trajectory state, one field per SNAPSHOT_COLUMNS entry."""

    __slots__ = ()

    def row(self) -> tuple[float, ...]:
        return tuple(self)


def w_prime(u: Field, p: ModelParams) -> Field:
    return Field(u.grid, u.values**3 - p.kappa * u.values)


def residual_array(g: Grid, v: np.ndarray, p: ModelParams) -> np.ndarray:
    out = lap_array(g, v)  # lap(v) - v^3 + kappa*v in that operation order, updated in place
    out -= v * v * v
    out += p.kappa * v
    return out


def residual(g: Grid, u: Field, p: ModelParams) -> Field:
    """Unconstrained right-hand side r = lap(u) - u^3 + kappa*u."""
    _check_on_grid(g, u)
    return Field(g, residual_array(g, u.values, p))


def eta_of(g: Grid, u: Field, p: ModelParams) -> Field:
    """Constraint multiplier eta = min(r, 0); zero wherever the field can move."""
    r = residual(g, u, p)
    return Field(g, np.minimum(r.values, 0.0))


def energy(g: Grid, u: Field, p: ModelParams) -> float:
    """E(u) = 0.5*|grad u|_2^2 + 0.25*|u|_4^4 - 0.5*kappa*|u|_2^2."""
    return phi_of(g, u) - 0.5 * p.kappa * norm_lp(g, u, 2) ** 2


def phi_of(g: Grid, u: Field) -> float:
    """Nonnegative energy part 0.5*|grad u|_2^2 + 0.25*|u|_4^4."""
    return 0.5 * h1_grad_sq(g, u.values) + 0.25 * norm_lp(g, u, 4) ** 4


def dr_value(g: Grid, u: Field, p: ModelParams) -> float:
    """Squared L2 norm of the negative residual part.

    A field with dr_value <= r lies in the invariant phase set of level r;
    the same number bounds |eta(t)|_2^2 along any trajectory started there.
    """
    neg = eta_of(g, u, p).values
    return float(g.cell_volume * np.sum(neg * neg))


def b0_check(g: Grid, u: Field, p: ModelParams, c_bound: float, phi_bound: float) -> bool:
    """Membership in the absorbing box {|r|_2^2 <= c_bound, phi <= phi_bound}."""
    if not (c_bound > 0 and phi_bound > 0):
        raise ValueError("bounds must be positive")
    r = residual(g, u, p)
    return bool(norm_lp(g, r, 2) ** 2 <= c_bound and phi_of(g, u) <= phi_bound)


def energy_floor(g: Grid, p: ModelParams) -> float:
    """Computable lower bound: E >= -kappa^2/4 * |domain| pointwise in the potential."""
    return -0.25 * p.kappa**2 * g.volume


def take_snapshot(g: Grid, u: Field, p: ModelParams, t: float) -> EnergySnapshot:
    """Evaluate all per-step scalar diagnostics of a state."""
    vals = _snapshot_values(g, u.values, p, t)
    return EnergySnapshot(*map(float, vals))


def _snapshot_values(g: Grid, v: np.ndarray, p: ModelParams, t,
                     r: np.ndarray | None = None) -> np.ndarray:
    """Snapshot rows of raw states, one per leading index of v.

    v has shape (..., n_nodes) and t broadcasts against v.shape[:-1]; the
    result has shape v.shape[:-1] + (len(SNAPSHOT_COLUMNS),).  Pass a
    precomputed residual to avoid a second stencil.
    """
    w = g.cell_volume
    if r is None:
        r = residual_array(g, v, p)
    grad_sq = h1_grad_sq(g, v)
    tmp = np.minimum(r, 0.0)  # one scratch array, refilled in place: a block's temporaries
    res_neg_l2sq = w * np.multiply(tmp, tmp, out=tmp).sum(axis=-1)
    u_l2sq = w * np.multiply(v, v, out=tmp).sum(axis=-1)
    u_l4_4 = w * np.multiply(tmp, tmp, out=tmp).sum(axis=-1)
    phi = 0.5 * grad_sq + 0.25 * u_l4_4
    e = phi - 0.5 * p.kappa * u_l2sq
    u_linf = np.abs(v, out=tmp).max(axis=-1)
    # roots by np.sqrt, which is correctly rounded on every platform (np.power is not)
    cols = (np.broadcast_to(t, res_neg_l2sq.shape), e, phi, np.sqrt(res_neg_l2sq),
            res_neg_l2sq, np.sqrt(u_l2sq), np.sqrt(np.sqrt(u_l4_4)), u_linf,
            np.sqrt(grad_sq))
    return np.stack(cols, axis=-1)
