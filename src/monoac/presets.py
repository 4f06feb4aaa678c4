"""Initial-data presets.

Presets are constructed in code so that the properties the rest of the suite
relies on (sign, boundary compatibility, supersolution residual) can be
enforced at build time instead of trusted from data files.
"""

from __future__ import annotations

import inspect

import numpy as np

from .grid import Field, Grid, first_mode, read_field_csv
from .model import ModelParams, residual

__all__ = ["PRESET_NAMES", "make_initial"]


def make_initial(name: str, g: Grid, p: ModelParams, /, **kwargs) -> Field:
    """Build a preset initial field on the grid.

    zero                    constant 0
    abs_edge                |x| - L on a symmetric 1D interval (-L, L); kinked, zero trace
    neg_const               constant -1 interior (incompatible with the zero boundary)
    eigenfunction(c)        c times the first stencil eigenfield, peak value c
    supersolution(c)        same shape, but verified to have residual <= 0
    bump(center,width,height) smooth compactly supported bump, peak value height
    custom(path)            field read back from CSV

    A parameter the preset does not take, or a list for a float one, raises ValueError.
    """
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
    params = inspect.signature(_BUILDERS[name]).parameters
    unknown = set(kwargs) - set(list(params)[2:])
    if unknown:
        raise ValueError(f"preset {name!r} does not take {sorted(unknown)}")
    for k, v in kwargs.items():
        if isinstance(v, list) and params[k].annotation == "float":
            raise ValueError(f"{k} must be one number, got {v!r}")
    return _BUILDERS[name](g, p, **kwargs)


def _zero(g, p):
    return Field(g, np.zeros(g.n_nodes))


def _abs_edge(g, p):
    if g.dim != 1:
        raise ValueError("abs_edge is defined on 1D intervals only")
    lo, hi = g.endpoints[0]
    if abs(lo + hi) > 1e-14 * max(1.0, abs(hi)):
        raise ValueError(f"abs_edge needs a symmetric interval, got ({lo}, {hi})")
    x = g.axis_coords(0)
    return Field(g, np.abs(x) - hi)


def _neg_const(g, p):
    return Field(g, -np.ones(g.n_nodes))


def _eigenfunction(g, p, c: float = 1.0):
    if not c > 0:
        raise ValueError(f"eigenfunction preset needs c > 0, got {c}")
    return Field(g, c * first_mode(g).values)


def _supersolution(g, p, c: float = 1.0):
    u = _eigenfunction(g, p, c=c)
    r = residual(g, u, p)
    worst = float(np.max(r.values))
    if worst > 1e-12:
        raise ValueError(
            f"c={c} does not give a supersolution on this grid "
            f"(residual reaches {worst:.3e}); the stencil eigenvalue must exceed kappa"
        )
    return u


def _bump(g, p, center=0.5, width=0.25, height: float = 0.2):
    if not height >= 0:
        raise ValueError(f"bump height must be nonnegative, got {height}")
    centers = (float(center),) if np.isscalar(center) else tuple(float(c) for c in center)
    widths = (float(width),) if np.isscalar(width) else tuple(float(w) for w in width)
    if len(centers) != g.dim or len(widths) != g.dim:
        raise ValueError("bump center/width must match the grid dimension")
    profile = np.ones(g.n_nodes)
    for axis, (c0, w0) in enumerate(zip(centers, widths)):
        lo, hi = g.endpoints[axis]
        if not w0 > 0:
            raise ValueError(f"bump width must be positive, got {w0}")
        if c0 - w0 < lo or c0 + w0 > hi:
            raise ValueError("bump support must lie inside the domain")
        s = (g.coords()[axis] - c0) / w0
        inside = np.abs(s) < 1.0
        ax = np.zeros(g.n_nodes)
        # mollifier profile, normalized to peak 1
        ax[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
        profile *= ax
    return Field(g, height * profile)


def _custom(g, p, path=None):
    if path is None:
        raise ValueError("custom preset needs a path")
    return read_field_csv(path, grid=g)


_BUILDERS = {
    "zero": _zero,
    "abs_edge": _abs_edge,
    "neg_const": _neg_const,
    "eigenfunction": _eigenfunction,
    "bump": _bump,
    "supersolution": _supersolution,
    "custom": _custom,
}
PRESET_NAMES = tuple(_BUILDERS)
