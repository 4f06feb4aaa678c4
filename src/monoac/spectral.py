"""First Dirichlet eigenvalue of -lap + V and the exponential decay rate.

Inverse power iteration on the positively shifted operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linsolve import LinearSolveError, apply_shifted, solve_shifted
from .grid import Field, Grid
from .model import ModelParams

__all__ = ["EigenResult", "EigenError", "min_eig", "sigma_rate"]


class EigenError(RuntimeError):
    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class EigenResult:
    lambda_min: float
    eigenfield: Field
    iterations: int
    residual: float

    def to_dict(self) -> dict:
        return {"lambda_min": self.lambda_min, "iterations": self.iterations,
                "residual": self.residual}


def min_eig(g: Grid, V: Field, tol: float = 1e-9, max_iter: int = 500) -> EigenResult:
    """Smallest eigenvalue of -lap + V by inverse power iteration.

    The iteration runs on -lap + V + s with s = max(0, -min V) + 1 so the
    solves are positive definite; the returned eigenvalue is unshifted.  The
    eigenfield is normalized to discrete L2 norm 1 with nonnegative sign.
    """
    if V.grid != g:
        raise ValueError("potential is not on the given grid")
    v = V.values
    shift = max(0.0, -float(np.min(v))) + 1.0
    diag_shifted = v + shift
    w = g.cell_volume
    sqrt_w = np.sqrt(w)

    x = np.ones(g.n_nodes) / (sqrt_w * np.sqrt(g.n_nodes))
    lam = 0.0
    resid = np.inf
    for it in range(1, max_iter + 1):
        try:
            y = solve_shifted(g, diag_shifted, x)
        except LinearSolveError as exc:
            raise EigenError(f"inverse power solve failed at iteration {it}: {exc}") from exc
        y /= sqrt_w * float(np.linalg.norm(y))
        ly = apply_shifted(g, v, y)  # unshifted operator
        lam = w * float(y @ ly)
        resid = sqrt_w * float(np.linalg.norm(ly - lam * y))
        x = y
        if resid <= tol:
            break
    else:
        raise EigenError(
            f"inverse power iteration stopped at residual {resid:.3e} > {tol:.1e}",
            residual=resid,
        )
    if x[int(np.argmax(np.abs(x)))] < 0:
        x = -x
    return EigenResult(lambda_min=lam, eigenfield=Field(g, x), iterations=it,
                       residual=resid)


def sigma_rate(g: Grid, u0: Field, p: ModelParams) -> float:
    """Decay rate lambda_min(3*u0^2) - kappa; positive means exponential decay.

    Only meaningful for nonnegative initial data, so negative entries are
    rejected rather than squared away silently.
    """
    if float(np.min(u0.values)) < 0:
        raise ValueError("sigma_rate requires nonnegative initial data")
    V = Field(g, 3.0 * u0.values**2)
    return min_eig(g, V).lambda_min - p.kappa

