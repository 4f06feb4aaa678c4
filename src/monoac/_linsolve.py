"""Linear solves for shifted Laplacian systems (diag(d) - lap) x = rhs.

1D systems are tridiagonal and symmetric positive definite, solved directly by
LAPACK's LDL^T pair dpttrf + dpttrs (Golub and Van Loan, Matrix Computations 4.3).
2D systems are solved by matrix-free conjugate gradients preconditioned with
the exact inverse of -lap + c, c the mean of d over the free nodes (clamped at
0) (the fast Poisson solver of Buzbee, Golub and Nielson 1970, used as a
preconditioner as in Concus and Golub 1973).  On this uniform Dirichlet grid
the orthonormal DST-I matrix of axis 0 (``Grid.sine_basis``) diagonalizes the
axis-0 stencil, which leaves one positive definite tridiagonal system along
axis 1 per axis-0 mode: the inverse is a matrix product, a LAPACK dpttrs solve
of all those systems at once, and a second product, with no FFT.  Nodes marked
in ``fixed`` are held at zero (identity rows), which is how active-set solvers
freeze contact nodes; the iteration runs on the free nodes only.

dpttrf and dpttrs are scipy's f2py wrappers, loaded from scipy/linalg/_flapack
without scipy.linalg's package init: ``import monoac.cli`` about 540 -> 220 ms.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
from pathlib import Path

import numpy as np

from .grid import Grid, lap_array


def _load_flapack(directory: Path):
    """dpttrf and dpttrs of scipy.linalg._flapack in ``directory``; imports no scipy package."""
    path = directory / f"_flapack{importlib.machinery.EXTENSION_SUFFIXES[0]}"
    if not path.is_file():
        raise ImportError(f"scipy's LAPACK extension _flapack is not in {directory}")
    loader = importlib.machinery.ExtensionFileLoader("scipy.linalg._flapack", str(path))
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(loader.name, loader))
    loader.exec_module(module)
    return module.dpttrf, module.dpttrs


dpttrf, dpttrs = _load_flapack(Path(importlib.util.find_spec("scipy").origin).parent / "linalg")


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

    A (B, n) rhs, with diag and fixed alike, holds B independent systems; no input is modified.
    """
    if g.dim == 1:
        return _solve_banded_1d(g, diag, rhs, fixed)
    d = np.empty(rhs.shape)
    d[...] = diag
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


@functools.lru_cache(maxsize=64)
def _off_diagonal(n: int, size: int, h: float) -> np.ndarray:
    """-1/h^2 off the diagonal of `size` nodes in systems of n, 0 where two systems meet."""
    off = np.full(size - 1, -(1.0 / (h * h)))
    off[n - 1::n] = 0.0
    off.flags.writeable = False
    return off


def _factor(main: np.ndarray, n: int, h: float, cut: np.ndarray | None = None):
    """dpttrf of main (overwritten) and -1/h^2 in systems of n, 0 at cut; raises on a pivot <= 0."""
    off = _off_diagonal(n, max(main.size, 2), h)  # dpttrf wants one entry at size 1
    if cut is not None:
        off = off.copy()
        off[cut] = 0.0
    d, e, info = dpttrf(main, off, overwrite_d=1)
    if info != 0:  # info > 0: the 1-based index of the first pivot <= 0, not positive definite
        raise LinearSolveError(f"tridiagonal solve failed (LAPACK dpttrf info={info})",
                               row=(info - 1) // n if info > 0 else None)
    return d, e


def _solve_banded_1d(g: Grid, diag, rhs: np.ndarray,
                     fixed: np.ndarray | None) -> np.ndarray:
    # A batch is one block-diagonal system: no coupling crosses rows, so each solves alone
    d = np.add(diag, 2.0 * (1.0 / (g.h[0] * g.h[0])), out=np.empty(rhs.shape)).reshape(-1)
    b = rhs.reshape(-1)  # dpttrs solves in a copy
    cut = None
    if fixed is not None and fixed.any():
        idx = np.flatnonzero(fixed)
        b = b.copy()
        d[idx] = 1.0
        b[idx] = 0.0
        # identity rows and columns: cut every coupling into and out of a fixed node
        cut = np.concatenate((idx[idx > 0] - 1, idx[idx < d.size - 1]))
    x, _ = dpttrs(*_factor(d, g.n_nodes, g.h[0], cut), b)
    return x.reshape(rhs.shape)


def _sine_transform(s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """s @ v for an n x n orthonormal DST-I matrix s, in half the flops.

    Row j (from 0) of s is even under k -> n - 1 - k for even j and odd for odd j,
    so even rows of s @ v need only v[k] + v[n-1-k] and odd rows v[k] - v[n-1-k].
    """
    n = len(s)
    m, h = (n + 1) // 2, n // 2
    mirror = v[:n - h - 1:-1]  # rows n-1, n-2, ..., n-h
    plus = v[:m].copy()
    plus[:h] += mirror
    out = np.empty_like(v)
    np.matmul(s[0::2, :m], plus, out=out[0::2])
    np.matmul(s[1::2, :h], v[:h] - mirror, out=out[1::2])
    return out


def _solve_cg(g: Grid, d: np.ndarray, rhs: np.ndarray, fixed: np.ndarray | None,
              rtol: float) -> np.ndarray:
    mask = None if fixed is None else (~fixed).astype(float)
    b = rhs if fixed is None else np.where(fixed, 0.0, rhs)
    x = np.zeros(b.shape)
    if not b.any():
        return x
    c = max(float(np.mean(d if fixed is None else d[~fixed])), 0.0)
    d = d if fixed is None else np.where(fixed, 0.0, d)  # no inf * 0 on a fixed node
    # per axis-0 mode k, (lambda_k + c) I - lap_1 along axis 1; the blocks are uncoupled
    n1 = g.shape[1]
    s0 = g.sine_basis[0]
    main = np.repeat(g.axis_eigenvalues[0] + (c + 2.0 * (1.0 / (g.h[1] * g.h[1]))), n1)
    main, off = _factor(main, n1, g.h[1])

    def matvec(v):
        # v is a search direction: zero on the fixed nodes, as every z is
        y = apply_shifted(g, d, v)
        if mask is not None:
            y *= mask
        return y

    def precondition(v):
        w, _ = dpttrs(main, off, _sine_transform(s0, v.reshape(g.shape)).reshape(-1),
                      overwrite_b=1)
        z = _sine_transform(s0, w.reshape(g.shape)).reshape(-1)
        if mask is not None:
            z *= mask
        return z

    r = b.astype(float)  # a copy: r is updated in place
    z = precondition(r)
    p = z
    rz = float(r @ z)
    target = rtol * float(np.sqrt(b @ b))
    # converging solves take tens of iterations; the cap only bounds a failing one
    max_iter = 10 * max(g.shape) + 200
    for _ in range(max_iter):
        ap = matvec(p)
        alpha = rz / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
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
        p *= rz_new / rz
        p += z
        rz = rz_new
    raise LinearSolveError(
        f"conjugate gradients did not reach rtol={rtol} in {max_iter} iterations"
    )
