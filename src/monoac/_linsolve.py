"""Linear solves for shifted Laplacian systems (diag(d) - lap) x = rhs.

1D systems are tridiagonal and solved directly by LAPACK dgtsv.
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
from scipy.linalg.lapack import dgtsv

from .grid import Grid, lap_array


class LinearSolveError(RuntimeError):
    """A solve failed; ``row`` is the failing system of a batch, when it is known."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


def apply_shifted(g: Grid, diag: np.ndarray, x: np.ndarray) -> np.ndarray:
    return diag * x - lap_array(g, x)


def solve_shifted(g: Grid, diag, rhs: np.ndarray, fixed: np.ndarray | None = None,
                  rtol: float = 1e-12) -> np.ndarray:
    """Solve (diag(d) - lap) x = rhs with x = 0 on the fixed nodes.

    A (B, n) rhs, with diag and fixed alike, holds B independent systems.
    """
    d = np.empty(rhs.shape)
    d[...] = diag
    if g.dim == 1:
        return _solve_banded_1d(g, d, rhs, fixed)
    if rhs.ndim == 1:
        return _solve_cg(g, d, rhs, fixed, rtol=rtol)
    x = np.empty(rhs.shape)
    for i in range(len(rhs)):
        try:
            x[i] = _solve_cg(g, d[i], rhs[i], None if fixed is None else fixed[i], rtol=rtol)
        except LinearSolveError as exc:
            exc.row = i
            raise
    return x


def _solve_banded_1d(g: Grid, d: np.ndarray, rhs: np.ndarray,
                     fixed: np.ndarray | None) -> np.ndarray:
    # d is a private copy: it becomes the main diagonal in place.  A batch is one
    # block-diagonal system: no coupling crosses rows, so each solves as if alone
    n = g.n_nodes
    d = d.reshape(-1)
    size = d.size
    inv_h2 = 1.0 / (g.h[0] * g.h[0])
    d += 2.0 * inv_h2
    dl = np.empty(size - 1)
    dl.fill(-inv_h2)
    dl[n - 1::n] = 0.0
    du = dl.copy()
    b = rhs.reshape(-1).copy()
    if fixed is not None and fixed.any():
        idx = np.flatnonzero(fixed)
        d[idx] = 1.0
        b[idx] = 0.0
        # identity rows: cut every coupling into and out of a fixed node
        # (the fixed value is 0, so the column cut only tidies the matrix)
        cut = np.concatenate((idx[idx > 0] - 1, idx[idx < size - 1]))
        dl[cut] = 0.0
        du[cut] = 0.0
    if size == 1:  # dgtsv wants at least one off-diagonal entry
        if d[0] == 0.0:
            raise LinearSolveError("tridiagonal solve failed: singular 1x1 system", row=0)
        return (b / d).reshape(rhs.shape)
    _, _, _, x, info = dgtsv(dl, d, du, b, overwrite_dl=1, overwrite_d=1, overwrite_du=1,
                             overwrite_b=1)
    if info != 0:  # info > 0: the 1-based index of a zero pivot
        raise LinearSolveError(f"tridiagonal solve failed (LAPACK dgtsv info={info})",
                               row=(info - 1) // n if info > 0 else None)
    return x.reshape(rhs.shape)


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
    # converging solves take tens of iterations; the cap only bounds a failing one
    max_iter = 10 * max(g.shape) + 200
    for _ in range(max_iter):
        ap = matvec(p)
        alpha = rz / float(p @ ap)
        x = x + alpha * p
        r = r - alpha * ap
        res = np.sqrt(float(r @ r))
        if res <= target:
            # the recursive residual drifts from b - A x: accept only a true one,
            # else carry on from the true residual
            r = b - matvec(x)
            res = np.sqrt(float(r @ r))
            if res <= target:
                return x
        if not np.isfinite(res):
            raise LinearSolveError("conjugate gradients produced a non-finite residual")
        z = precondition(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise LinearSolveError(
        f"conjugate gradients did not reach rtol={rtol} in {max_iter} iterations"
    )
