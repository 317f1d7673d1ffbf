"""Periodic differences on n x m grids and the Fourier symbols of
the model's two normal operators.

Images are n x m float64 arrays, n rows and m columns, each at least 2
(n == m is not needed). The x direction runs along columns (axis 1) and
y along rows (axis 0); every difference wraps around the boundary, so
constants are in the kernel of every operator here. The gradient D is
applied in pixels, and a gradient field is one stacked (2, n, m) array
with the x differences in [0] and the y differences in [1]. The
second-difference Hessian H is used only through the symbol of H^T H:
both normal operators are diagonalized exactly by the 2D DFT, and their
symbols are kept on the rfft2 half spectrum together with its Parseval
column weights.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import MISSING, dataclass, fields

import numpy as np

Array = np.ndarray


def as_grid(a, name: str = "grid") -> Array:
    """Validate a 2D, finite, float64 image grid, every side >= 2, and return it."""
    g = np.asarray(a, dtype=np.float64)
    if g.ndim != 2 or min(g.shape) < 2:
        raise ValueError(f"{name} must be a 2D array with sides >= 2, got shape {g.shape}")
    if not np.all(np.isfinite(g)):
        raise ValueError(f"{name} contains NaN or infinite entries")
    return g


def is_number(value) -> bool:
    """Whether value is an int or a float, numpy's included; a bool is not."""
    return not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating))


def check_fields(obj, names, rule: str = "finite") -> None:
    """Raise ValueError naming the first of the fields names of obj that is
    not a number or breaks rule; an int too large for a float is not finite."""
    for name in names:
        value = getattr(obj, name)
        if not is_number(value):
            raise ValueError(f"{name} must be a number, got {value!r}")
        signed = {"finite": True, "finite and nonnegative": value >= 0,
                  "finite and positive": value > 0}[rule]
        finite = (abs(value) <= sys.float_info.max if isinstance(value, int)
                  else math.isfinite(value))
        if not (finite and signed):
            raise ValueError(f"{name} must be {rule}, got {value!r}")


def check_count(value, name: str, least: int):
    """value if an integer >= least (numpy ones count, bools do not), else ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value!r}")
    return value


def check_keys(cls, payload: dict, what: str, keys=None) -> dict:
    """payload, once it holds only keys (by default the fields of cls) and
    every field of cls without a default; cls checks the values."""
    unknown = sorted(set(payload) - set(keys or [f.name for f in fields(cls)]))
    if unknown:
        raise ValueError(f"unknown {what} keys: {unknown}")
    missing = sorted({f.name for f in fields(cls) if f.default is MISSING} - set(payload))
    if missing:
        raise ValueError(f"missing required {what} keys: {missing}")
    return payload


# per step along x: the columns written, the columns one step ahead of
# them, the wrap column and the column one step ahead of it (periodic)
_X_SLICES = {
    1: (slice(None, -1), slice(1, None), slice(-1, None), slice(None, 1)),
    -1: (slice(1, None), slice(None, -1), slice(None, 1), slice(-1, None)),
}


def _x_difference(u: Array, out: Array, step: int) -> Array:
    """out[i, j] = u[i, j+step] - u[i, j], periodic in j, for step = +-1.

    out must be C-contiguous. The interior is one subtraction along the
    flattened rows. That subtraction crosses a row boundary only in the
    wrap column, which the column subtraction after it overwrites.
    """
    into, ahead, wrap, wrap_from = _X_SLICES[step]
    flat = u.reshape(-1)
    np.subtract(flat[ahead], flat[into], out=out.reshape(-1)[into])
    np.subtract(u[:, wrap_from], u[:, wrap], out=out[:, wrap])
    return out


def _stack(out: Array | None, like: Array) -> Array:
    """out, or a new (2, n, m) array shaped and typed after the grid like.

    A given out must be C-contiguous: the row-flattened x difference
    would write into a copy of any other layout.
    """
    if out is None:
        return np.empty((2, *like.shape), dtype=like.dtype)
    if not out.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous (2, n, m) array")
    return out


def grad(u: Array, out: Array | None = None) -> Array:
    """Forward-difference gradient of a grid as one (2, n, m) array.

    g[0] = u[i, j+1] - u[i, j] (periodic in j) and
    g[1] = u[i+1, j] - u[i, j] (periodic in i); written into out, a
    C-contiguous (2, n, m) array, when it is given.
    """
    g = _stack(out, u)
    _x_difference(u, g[0], 1)
    np.subtract(u[1:], u[:-1], out=g[1, :-1])
    np.subtract(u[:1], u[-1:], out=g[1, -1:])
    return g


def grad_adjoint(p: Array, out: Array | None = None) -> Array:
    """Adjoint of grad: negative backward divergence of a (2, n, m) field.

    Each negated backward difference is one subtraction, u[j-1] - u[j].
    In IEEE arithmetic -(a - b) is b - a and -X - Y is (-X) + (-Y), so
    this equals -(p[0, i, j] - p[0, i, j-1]) - (p[1, i, j] - p[1, i-1, j])
    value for value (a zero may come out +0 for -0). out, when given, is
    a C-contiguous (2, n, m) scratch array, and the result is written
    into out[0].
    """
    out = _stack(out, p[0])
    _x_difference(p[0], out[0], -1)
    np.subtract(p[1, :-1], p[1, 1:], out=out[1, 1:])
    np.subtract(p[1, -1:], p[1, :1], out=out[1, :1])
    return np.add(out[0], out[1], out=out[0])


def grad_norms(g: Array) -> Array:
    """Per-pixel Euclidean norm of a (2, n, m) field."""
    return np.hypot(g[0], g[1])


@dataclass(frozen=True)
class OperatorSymbols:
    """2D DFT symbols of the normal operators on the rfft2 half spectrum.

    dtd diagonalizes grad_adjoint(grad(.)) and hth the Hessian normal
    operator H^T H under numpy's rfft2 convention. H stacks the four
    composed second differences: backward-x of forward-x, forward-x of
    forward-y, forward-y of forward-x and backward-y of forward-y; under
    the periodic wrap H^T H = (D^T D)^2. Both symbols are real,
    (n, m // 2 + 1) for an n x m grid, and vanish at the zero frequency
    (constants are in the kernel). weights holds the Parseval weight of
    each column: sum(weights * |rfft2(x)|**2) is the squared norm of the
    real grid x, since every column but the zero one (and the Nyquist
    one when m is even) stands for itself and its Hermitian mirror.
    """

    dtd: Array
    hth: Array
    weights: Array


def compute_symbols(shape: tuple[int, int]) -> OperatorSymbols:
    """Analytic Fourier symbols on a periodic grid of shape (n, m).

    dtd(k1, k2) = 4 sin^2(pi k1 / n) + 4 sin^2(pi k2 / m) and
    hth = dtd**2, for k2 <= m // 2: a row symbol plus a column symbol.
    The symbols of a shape are built once and shared, so their arrays
    are read-only.
    """
    n, m = shape
    if min(n, m) < 2:
        raise ValueError(f"grid sides must be >= 2, got shape {tuple(shape)}")
    return _symbols(int(n), int(m))


@functools.lru_cache(maxsize=8)
def _symbols(n: int, m: int) -> OperatorSymbols:
    half = m // 2 + 1
    s_y = 4.0 * np.sin(np.pi * np.arange(n) / n) ** 2
    s_x = 4.0 * np.sin(np.pi * np.arange(half) / m) ** 2
    dtd = s_y[:, None] + s_x[None, :]
    weights = np.full(half, 2.0)
    weights[0] = 1.0
    if m % 2 == 0:
        weights[-1] = 1.0
    symbols = OperatorSymbols(dtd=dtd, hth=dtd**2, weights=weights / (n * m))
    for array in (symbols.dtd, symbols.hth, symbols.weights):
        array.flags.writeable = False
    return symbols
