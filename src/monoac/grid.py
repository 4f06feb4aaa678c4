"""Uniform Dirichlet grids, interior-node fields, stencil operators and discrete norms.

Domains are intervals (1D) or axis-aligned rectangles (2D) discretized with a
uniform grid of interior nodes; the homogeneous Dirichlet boundary is realized
through zero ghost values, so fields only ever store interior values.

The discrete gradient energy uses forward differences over every edge,
including the edges that touch the boundary.  With that convention the
summation-by-parts identity

    sum of squared edge differences  ==  - h^dim * sum_i u_i * (lap u)_i

holds exactly, which the norms and energies elsewhere rely on.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "make_grid",
    "laplacian",
    "norm_lp",
    "h1_seminorm",
    "positive_part",
    "negative_part",
    "stencil_min_eigenvalue",
    "first_mode",
    "write_field_csv",
    "read_field_csv",
]


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid of interior nodes with implied zero boundary.

    Attributes:
        dim: spatial dimension, 1 or 2.
        endpoints: per-axis (lo, hi) extents of the domain.
        n_interior: per-axis interior node counts.
        h: per-axis spacing, (hi - lo) / (n_interior + 1).
    """

    dim: int
    endpoints: tuple[tuple[float, float], ...]
    n_interior: tuple[int, ...]
    h: tuple[float, ...]

    @property
    def shape(self) -> tuple[int, ...]:
        return self.n_interior

    @cached_property
    def n_nodes(self) -> int:
        return math.prod(self.n_interior)

    @cached_property
    def cell_volume(self) -> float:
        """Quadrature weight h^dim of one interior node."""
        return math.prod(self.h)

    @cached_property
    def axis_eigenvalues(self) -> tuple[np.ndarray, ...]:
        """Eigenvalues (4/h_a^2) sin^2(pi k / (2 (n_a + 1))), k = 1..n_a, of each axis's
        negative 3-point stencil; mode k is the DST-I vector sin(pi j k / (n_a + 1))."""
        return tuple((4.0 / (h * h)) * np.sin(0.5 * np.pi * np.arange(1, n + 1) / (n + 1)) ** 2
                     for n, h in zip(self.n_interior, self.h))

    @cached_property
    def lap_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of the negative stencil Laplacian, shaped like the grid.

        Mode k = (k_1, ..., k_dim) is the product of the axes' DST-I modes, with
        eigenvalue the sum of their ``axis_eigenvalues``.
        """
        total = np.zeros(self.shape)
        for a, lam in enumerate(self.axis_eigenvalues):
            total += lam.reshape([len(lam) if b == a else 1 for b in range(self.dim)])
        return total

    @cached_property
    def sine_basis(self) -> tuple[np.ndarray, ...]:
        """Orthonormal DST-I matrix of each axis.

        S_a[j, k] = sqrt(2 / (n_a + 1)) sin(pi (j + 1) (k + 1) / (n_a + 1)) is symmetric
        and its own inverse; in 2D, S_0 @ (lap_eigenvalues * (S_0 @ V @ S_1)) @ S_1 is -lap V.
        """
        out = []
        for n in self.n_interior:
            k = np.arange(1, n + 1)
            out.append(np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(k, k) / (n + 1)))
        return tuple(out)

    @cached_property
    def csv_header(self) -> str:
        """Grid header line of a field CSV, newline included."""
        n_str = "x".join(str(n) for n in self.n_interior)
        h_str = "x".join(repr(h) for h in self.h)
        return f"# grid dim={self.dim} n={n_str} h={h_str}\n"

    @cached_property
    def csv_row_prefixes(self) -> list[str]:
        """Coordinate columns of each field CSV row, trailing comma included."""
        xs, *ys = (repr_floats(self.axis_coords(a)) for a in range(self.dim))  # "ij" order
        return [f"{x},{y}," for x in xs for y in ys[0]] if ys else [x + "," for x in xs]

    @property
    def volume(self) -> float:
        """Measure of the continuous domain."""
        return float(np.prod([hi - lo for lo, hi in self.endpoints]))

    def axis_coords(self, axis: int) -> np.ndarray:
        lo, _ = self.endpoints[axis]
        n = self.n_interior[axis]
        h = self.h[axis]
        return lo + h * np.arange(1, n + 1)

    def coords(self) -> list[np.ndarray]:
        """Per-axis coordinate arrays broadcast over the interior shape."""
        axes = [self.axis_coords(a) for a in range(self.dim)]
        return [g.ravel() for g in np.meshgrid(*axes, indexing="ij")]


@dataclass(frozen=True)
class Field:
    """Values of a scalar function at the interior nodes of a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).reshape(-1)
        if v.shape[0] != self.grid.n_nodes:
            raise ValueError(
                f"field has {v.shape[0]} values, grid has {self.grid.n_nodes} interior nodes"
            )
        if not np.all(np.isfinite(v)):
            raise NonFiniteError("field contains non-finite values")
        object.__setattr__(self, "values", v)


class NonFiniteError(ValueError):
    """A Field given a value that is not finite."""


def physical_memory() -> int:
    """Bytes of physical memory, read through sysconf."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def make_grid(dim, endpoints, n_interior) -> Grid:
    """Build a uniform Dirichlet grid.

    1D accepts scalars, e.g. make_grid(1, (0, 1), 127); 2D takes per-axis
    tuples, e.g. make_grid(2, ((0, 1), (0, 1)), (31, 31)).
    """
    if isinstance(dim, bool) or dim not in (1, 2):  # a whole number, 2.0 included
        raise ValueError(f"dim must be 1 or 2, got {dim!r}")
    dim = int(dim)
    if dim == 1 and len(endpoints) == 2 and np.isscalar(endpoints[0]):
        endpoints = (endpoints,)
    endpoints = tuple(tuple(e) for e in endpoints)
    if not isinstance(n_interior, (list, tuple, np.ndarray)):  # one axis's count
        n_interior = (n_interior,)
    if len(endpoints) != dim or len(n_interior) != dim:
        raise ValueError("endpoints and n_interior must have one entry per axis")
    for n in n_interior:
        if isinstance(n, bool) or not isinstance(n, numbers.Real) or not n >= 1 or n % 1:
            raise ValueError(f"n_interior must be an integer >= 1, got {n!r}")
    if 8 * math.prod(int(n) for n in n_interior) > (memory := physical_memory()):
        raise ValueError(f"n_interior gives more nodes than one float64 array can hold in "
                         f"the {memory} bytes of physical memory")
    h = []
    for (lo, hi), n in zip(endpoints, n_interior):
        if not hi > lo:
            raise ValueError(f"endpoints must be ordered, got ({lo}, {hi})")
        h.append((hi - lo) / (int(n) + 1))
        if not (0 < (h2 := h[-1] * h[-1]) < math.inf and 1 / h2 < math.inf):
            raise ValueError(f"endpoints ({lo}, {hi}) give spacing {h[-1]!r}, whose h^2 or "
                             "1/h^2 is not a positive finite float")
    return Grid(dim=dim, endpoints=endpoints, n_interior=tuple(int(n) for n in n_interior),
                h=tuple(h))


def _check_on_grid(g: Grid, u: Field):
    if u.grid != g:
        raise ValueError("field is not defined on the given grid")


def lap_array(g: Grid, a: np.ndarray) -> np.ndarray:
    """Dirichlet Laplacian stencil on raw values; the last axis holds the nodes.

    Leading axes are a batch: an array of shape (..., n_nodes) maps to the same shape.
    """
    if g.dim == 1:
        h2 = g.h[0] * g.h[0]
        out = -2.0 * a
        out[..., 1:] += a[..., :-1]
        out[..., :-1] += a[..., 1:]
        return np.divide(out, h2, out=out)
    inv0 = 1.0 / (g.h[0] * g.h[0])
    inv1 = 1.0 / (g.h[1] * g.h[1])
    n1 = g.shape[1]
    out = (-2.0 * inv0 - 2.0 * inv1) * a
    # neighbour values, scaled once per axis, added as contiguous shifts of the flat nodes
    nb = a * inv0
    out[..., n1:] += nb[..., :-n1]
    out[..., :-n1] += nb[..., n1:]
    np.multiply(a, inv1, out=nb)
    # along axis 1 a flat shift wraps across grid rows: zero the column it wraps from
    cols = nb.reshape(a.shape[:-1] + g.shape)
    last = cols[..., -1].copy()
    cols[..., -1] = 0.0
    out[..., 1:] += nb[..., :-1]
    cols[..., -1] = last
    cols[..., 0] = 0.0
    out[..., :-1] += nb[..., 1:]
    return out


def laplacian(g: Grid, u: Field) -> Field:
    """Second-order 3-point (1D) / 5-point (2D) Laplacian with zero ghost values."""
    _check_on_grid(g, u)
    return Field(g, lap_array(g, u.values))


def norm_lp(g: Grid, u: Field, p) -> float:
    """Discrete L^p norm, (h^dim * sum |u|^p)^(1/p); p in {2, 4, 6, inf}."""
    _check_on_grid(g, u)
    v = u.values
    if p == np.inf or p == "inf":
        return float(np.max(np.abs(v))) if v.size else 0.0
    if p not in (2, 4, 6):
        raise ValueError(f"unsupported norm order {p}")
    return float((g.cell_volume * np.sum(np.abs(v) ** p)) ** (1.0 / p))


def h1_grad_sq(g: Grid, a: np.ndarray):
    """Squared discrete gradient norm of raw values (edges to the boundary included).

    The last axis holds the nodes; a stacked (..., n_nodes) input gives one
    value per leading index, a single field gives a float.
    """
    if g.dim == 1:
        # rows end to end, each after a 0: one unstrided difference gives each row's edges
        rows = a.shape[:-1] + (a.shape[-1] + 1,)
        pad = np.zeros(math.prod(rows) + 1)
        pad[1:].reshape(rows)[..., :-1] = a
        d = np.subtract(pad[1:], pad[:-1]).reshape(rows)
        total = np.multiply(d, d, out=d).sum(axis=-1) / (g.h[0] * g.h[0])
    else:
        v = a.reshape(a.shape[:-1] + g.shape)
        d0 = np.diff(v, axis=-2, prepend=0.0, append=0.0)
        d1 = np.diff(v, axis=-1, prepend=0.0, append=0.0)
        total = (d0 * d0).sum(axis=(-2, -1)) / (g.h[0] * g.h[0]) \
            + (d1 * d1).sum(axis=(-2, -1)) / (g.h[1] * g.h[1])
    out = g.cell_volume * total
    return float(out) if a.ndim == 1 else out


def h1_seminorm(g: Grid, u: Field) -> float:
    """Discrete H1 seminorm (the square root of the edge-difference energy)."""
    _check_on_grid(g, u)
    return float(np.sqrt(h1_grad_sq(g, u.values)))


def positive_part(u: Field) -> Field:
    return Field(u.grid, np.maximum(u.values, 0.0))


def negative_part(u: Field) -> Field:
    return Field(u.grid, np.maximum(-u.values, 0.0))


def stencil_min_eigenvalue(g: Grid) -> float:
    """Smallest eigenvalue of the negative discrete Laplacian: the sum of each axis's first
    ``axis_eigenvalues``."""
    return float(sum(lam[0] for lam in g.axis_eigenvalues))


def first_mode(g: Grid) -> Field:
    """First eigenfield of the negative discrete Laplacian, scaled to peak value 1."""
    axes = [np.sin(np.pi * np.arange(1, n + 1) / (n + 1)) for n in g.n_interior]
    v = axes[0] if g.dim == 1 else np.outer(*axes).reshape(-1)
    return Field(g, v / np.max(v))


def repr_floats(a: np.ndarray) -> list[str]:
    """repr(float(x)) of every entry of a 1D array, formatted in one call."""
    # a float's repr holds no ", ", so splitting the list's repr is exact
    return repr(a.tolist())[1:-1].split(", ")


def parse_csv_rows(path, text: str, n_cols: int) -> np.ndarray:
    """Float table of the non-blank lines of a CSV body, n_cols fields per line.

    numpy's reader parses the fields: whitespace around a field is accepted, but
    it is stricter than float() (no "1_0" digit separators, no "#" comments).
    Errors are ValueErrors naming path.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path}: no rows")
    try:
        data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:  # ragged rows, or a field that is not a number
        raise ValueError(f"{path}: unreadable rows ({exc})") from None
    if data.shape[1] != n_cols:
        raise ValueError(f"{path}: expected {n_cols} columns per row")
    return data


# one-entry memos, replaced whole so that concurrent callers can only repeat work: the
# text of the last field written, keyed by (grid, exact value bytes), and the grid and
# table of the last file read, keyed by (grid argument, text)
_last_written = (None, "")
_last_read = (None, None, None)


def write_field_csv(path, u: Field):
    """One node per line: axis coordinates then value, after a grid header."""
    global _last_written
    key, memo = (u.grid, u.values.tobytes()), _last_written
    if memo[0] != key:
        rows = map(str.__add__, u.grid.csv_row_prefixes, repr_floats(u.values))
        memo = _last_written = (key, u.grid.csv_header + "\n".join(rows) + "\n")
    with open(path, "w") as f:
        f.write(memo[1])


def read_field_csv(path, grid: Grid | None = None) -> Field:
    """Read a field written by write_field_csv; rebuilds the grid if none is given.

    Blank lines and whitespace around fields are accepted; a missing or
    malformed header, malformed rows, a wrong shape, a header or coordinates
    off the given grid (by more than 1e-9 of its spacing) or a non-finite
    value raise ValueErrors naming path.  The values are a fresh contiguous array.
    """
    global _last_read
    with open(path) as f:
        text = f.read()
    key, memo = (grid, text), _last_read
    if memo[0] != key:
        memo = _last_read = (key, *_parse_field_csv(path, text, grid))
    return Field(memo[1], memo[2][:, -1].copy())


def _parse_field_csv(path, text: str, grid: Grid | None) -> tuple[Grid, np.ndarray]:
    header, _, body = text.partition("\n")
    header = header.strip()
    if not header.startswith("# grid "):
        raise ValueError(f"{path}: missing grid header")
    try:
        meta = dict(tok.split("=", 1) for tok in header[len("# grid "):].split())
        dim = int(meta["dim"])
        n_interior = tuple(int(s) for s in meta["n"].split("x"))
        h = tuple(float(s) for s in meta["h"].split("x"))
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}: malformed grid header ({exc!r})") from None
    data = parse_csv_rows(path, body, dim + 1)
    if data.shape[0] != np.prod(n_interior):
        raise ValueError(f"{path}: expected {np.prod(n_interior)} rows, got {data.shape[0]}")
    if grid is None:
        # endpoints recovered from the first interior node: lo = x0 - h
        endpoints = []
        for a in range(dim):
            lo = data[0, a] - h[a]
            endpoints.append((lo, lo + h[a] * (n_interior[a] + 1)))
        grid = Grid(dim=dim, endpoints=tuple(endpoints), n_interior=n_interior, h=h)
    elif grid.dim != dim or grid.n_interior != n_interior or len(h) != dim or any(
            abs(hf - hg) > 1e-9 * hg for hf, hg in zip(h, grid.h)):
        raise ValueError(f"{path}: grid header does not match the expected grid")
    elif any(np.max(np.abs(data[:, a] - c)) > 1e-9 * grid.h[a]
             for a, c in enumerate(grid.coords())):
        raise ValueError(f"{path}: coordinates do not match the expected grid")
    if not np.isfinite(data[:, -1]).all():
        raise ValueError(f"{path}: non-finite field value")
    return grid, data
