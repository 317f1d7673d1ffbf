"""Periodic differences on square grids and the Fourier symbols of
the model's two normal operators.

Images are n x n float64 arrays. The x direction runs along columns
(axis 1) and y along rows (axis 0); every difference wraps around the
boundary, so constants are in the kernel of every operator here. The
gradient D is applied in pixels. The second-difference Hessian H is
used only through the symbol of H^T H: both normal operators are
diagonalized exactly by the 2D DFT, and their symbols are kept on the
rfft2 half spectrum together with its Parseval column weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Array = np.ndarray


def as_grid(a, name: str = "grid") -> Array:
    """Validate a square, finite, float64 image grid and return it."""
    g = np.asarray(a, dtype=np.float64)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError(f"{name} must be a square 2D array, got shape {g.shape}")
    if g.shape[0] < 2:
        raise ValueError(f"{name} side length must be >= 2, got {g.shape[0]}")
    if not np.all(np.isfinite(g)):
        raise ValueError(f"{name} contains NaN or infinite entries")
    return g


# per step along x: the columns written, the columns one step ahead of
# them, the wrap column and the column one step ahead of it (periodic)
_X_SLICES = {
    1: (slice(None, -1), slice(1, None), slice(-1, None), slice(None, 1)),
    -1: (slice(1, None), slice(None, -1), slice(None, 1), slice(-1, None)),
}


def _x_difference(u: Array, out: Array, step: int) -> Array:
    """out[i, j] = u[i, j+step] - u[i, j], periodic in j, for step = +-1.

    When out is C-contiguous the interior is one subtraction along the
    flattened rows. That subtraction crosses a row boundary only in the
    wrap column, which the column subtraction after it overwrites.
    """
    into, ahead, wrap, wrap_from = _X_SLICES[step]
    if out.flags.c_contiguous:
        flat = u.reshape(-1)
        np.subtract(flat[ahead], flat[into], out=out.reshape(-1)[into])
    else:
        np.subtract(u[:, ahead], u[:, into], out=out[:, into])
    np.subtract(u[:, wrap_from], u[:, wrap], out=out[:, wrap])
    return out


def forward_x(u: Array, out: Array | None = None) -> Array:
    """u[i, j+1] - u[i, j], periodic in j."""
    return _x_difference(u, np.empty_like(u) if out is None else out, 1)


def forward_y(u: Array, out: Array | None = None) -> Array:
    """u[i+1, j] - u[i, j], periodic in i."""
    out = np.empty_like(u) if out is None else out
    np.subtract(u[1:], u[:-1], out=out[:-1])
    np.subtract(u[:1], u[-1:], out=out[-1:])
    return out


@dataclass(frozen=True)
class GradientField:
    """Per-pixel 2-vector (forward-x difference, forward-y difference)."""

    dx: Array
    dy: Array


def grad(u: Array, out: Array | None = None) -> GradientField:
    """Forward-difference gradient of a grid.

    Both channels are views of one (2, n, n) array, written into out
    when it is given.
    """
    out = np.empty((2, *u.shape), dtype=u.dtype) if out is None else out
    return GradientField(dx=forward_x(u, out[0]), dy=forward_y(u, out[1]))


def grad_adjoint(p: GradientField, out: Array | None = None) -> Array:
    """Adjoint of grad: negative backward divergence of a 2-vector field.

    Each negated backward difference is one subtraction, u[j-1] - u[j].
    In IEEE arithmetic -(a - b) is b - a and -X - Y is (-X) + (-Y), so
    this equals -(dx[i, j] - dx[i, j-1]) - (dy[i, j] - dy[i-1, j]) value
    for value (a zero may come out +0 for -0). out, when given, is a
    (2, n, n) scratch array, and the result is written into out[0].
    """
    out = np.empty((2, *p.dx.shape)) if out is None else out
    _x_difference(p.dx, out[0], -1)
    np.subtract(p.dy[:-1], p.dy[1:], out=out[1, 1:])
    np.subtract(p.dy[-1:], p.dy[:1], out=out[1, :1])
    return np.add(out[0], out[1], out=out[0])


def grad_norms(p: GradientField) -> Array:
    """Per-pixel Euclidean norm sqrt(dx**2 + dy**2)."""
    return np.hypot(p.dx, p.dy)


@dataclass(frozen=True)
class OperatorSymbols:
    """2D DFT symbols of the normal operators on the rfft2 half spectrum.

    dtd diagonalizes grad_adjoint(grad(.)) and hth the Hessian normal
    operator H^T H under numpy's rfft2 convention. H stacks the four
    composed second differences: backward-x of forward-x, forward-x of
    forward-y, forward-y of forward-x and backward-y of forward-y; under
    the periodic wrap H^T H = (D^T D)^2. Both symbols are real,
    (n, n // 2 + 1), and vanish at the zero frequency (constants are in
    the kernel). weights holds the Parseval weight of each column:
    sum(weights * |rfft2(x)|**2) is the squared norm of the real grid x,
    since every column but the zero one (and the Nyquist one when n is
    even) stands for itself and its Hermitian mirror.
    """

    dtd: Array
    hth: Array
    weights: Array


def compute_symbols(n: int) -> OperatorSymbols:
    """Analytic Fourier symbols on an n x n periodic grid.

    dtd(k1, k2) = 4 sin^2(pi k1 / n) + 4 sin^2(pi k2 / n) and
    hth = dtd**2, for k2 <= n // 2.
    """
    if n < 2:
        raise ValueError(f"grid side must be >= 2, got {n}")
    half = n // 2 + 1
    s = 4.0 * np.sin(np.pi * np.arange(n) / n) ** 2
    dtd = s[:, None] + s[None, :half]
    weights = np.full(half, 2.0)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[-1] = 1.0
    return OperatorSymbols(dtd=dtd, hth=dtd**2, weights=weights / (n * n))
