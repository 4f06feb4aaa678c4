"""Linear solves for shifted Laplacian systems (diag(d) - lap) x = rhs.

1D systems are tridiagonal and solved directly through a banded factorization.
2D systems are solved by matrix-free conjugate gradients preconditioned with
the exact inverse of -lap + c, c the mean of d over the free nodes (clamped at
0): on this uniform Dirichlet grid DST-I diagonalizes -lap, so the inverse is
two fast sine transforms (the fast Poisson solver of Buzbee, Golub and Nielson
1970, used as a preconditioner as in Concus and Golub 1973).  Nodes marked in
``fixed`` are held at zero (identity rows), which is how active-set solvers
freeze contact nodes; the iteration runs on the free nodes only.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_banded

from .grid import Grid, lap_array


class LinearSolveError(RuntimeError):
    pass


def apply_shifted(g: Grid, diag: np.ndarray, x: np.ndarray) -> np.ndarray:
    return diag * x - lap_array(g, x)


def solve_shifted(g: Grid, diag, rhs: np.ndarray, fixed: np.ndarray | None = None,
                  rtol: float = 1e-12) -> np.ndarray:
    """Solve (diag(d) - lap) x = rhs with x = 0 on the fixed nodes."""
    d = np.broadcast_to(np.asarray(diag, dtype=float), rhs.shape).copy()
    if g.dim == 1:
        return _solve_banded_1d(g, d, rhs, fixed)
    return _solve_cg(g, d, rhs, fixed, rtol=rtol)


def _solve_banded_1d(g: Grid, d: np.ndarray, rhs: np.ndarray,
                     fixed: np.ndarray | None) -> np.ndarray:
    n = g.n_nodes
    inv_h2 = 1.0 / (g.h[0] * g.h[0])
    ab = np.zeros((3, n))
    ab[0, 1:] = -inv_h2
    ab[1, :] = d + 2.0 * inv_h2
    ab[2, :-1] = -inv_h2
    b = rhs.copy()
    if fixed is not None and fixed.any():
        idx = np.nonzero(fixed)[0]
        ab[1, idx] = 1.0
        b[idx] = 0.0
        # identity rows: cut the couplings out of each fixed row ...
        left = idx[idx > 0]
        ab[2, left - 1] = 0.0
        right = idx[idx < n - 1]
        ab[0, right + 1] = 0.0
        # ... and into it (the fixed value is 0, so this only tidies the matrix)
        ab[0, idx] = 0.0
        ab[2, idx] = 0.0
    try:
        return solve_banded((1, 1), ab, b, check_finite=False, overwrite_ab=True,
                            overwrite_b=True)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - singular guard
        raise LinearSolveError(str(exc)) from exc


def _solve_cg(g: Grid, d: np.ndarray, rhs: np.ndarray, fixed: np.ndarray | None,
              rtol: float) -> np.ndarray:
    # imported here: scipy.fft adds tens of ms to every CLI start, and only 2D needs it
    from scipy.fft import dstn, idstn

    free = None if fixed is None else ~fixed
    b = rhs if free is None else np.where(free, rhs, 0.0)
    x = np.zeros_like(b)
    if not b.any():
        return x
    c = max(float(np.mean(d if free is None else d[free])), 0.0)
    inv_eig = 1.0 / (g.lap_eigenvalues + c)

    def matvec(v):
        # v is a search direction: zero on the fixed nodes, as every z is
        y = apply_shifted(g, d, v)
        return y if free is None else np.where(free, y, 0.0)

    def precondition(v):
        z = idstn(dstn(v.reshape(g.shape), type=1) * inv_eig, type=1).reshape(-1)
        return z if free is None else np.where(free, z, 0.0)

    r = b
    z = precondition(r)
    p = z
    rz = float(r @ z)
    target = rtol * float(np.sqrt(b @ b))
    max_iter = 40 * g.n_nodes + 200
    for _ in range(max_iter):
        ap = matvec(p)
        alpha = rz / float(p @ ap)
        x = x + alpha * p
        r = r - alpha * ap
        if np.sqrt(float(r @ r)) <= target:
            return x
        z = precondition(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise LinearSolveError(
        f"conjugate gradients did not reach rtol={rtol} in {max_iter} iterations"
    )
