"""Discrete difference operators on square grids with periodic wrap.

Images are n x n float64 arrays. The x direction runs along columns
(axis 1) and y along rows (axis 0); every difference wraps around the
boundary, so constants are in the kernel of all operators here and the
normal operators (divergence-of-gradient, double divergence of the
Hessian) are diagonalized exactly by the 2D DFT.
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


def backward_x(u: Array) -> Array:
    """u[i, j] - u[i, j-1], periodic in j."""
    out = np.empty_like(u)
    np.subtract(u[:, 1:], u[:, :-1], out=out[:, 1:])
    np.subtract(u[:, :1], u[:, -1:], out=out[:, :1])
    return out


def forward_y(u: Array, out: Array | None = None) -> Array:
    """u[i+1, j] - u[i, j], periodic in i."""
    out = np.empty_like(u) if out is None else out
    np.subtract(u[1:], u[:-1], out=out[:-1])
    np.subtract(u[:1], u[-1:], out=out[-1:])
    return out


def backward_y(u: Array) -> Array:
    """u[i, j] - u[i-1, j], periodic in i."""
    out = np.empty_like(u)
    np.subtract(u[1:], u[:-1], out=out[1:])
    np.subtract(u[:1], u[-1:], out=out[:1])
    return out


@dataclass(frozen=True)
class GradientField:
    """Per-pixel 2-vector (forward-x difference, forward-y difference)."""

    dx: Array
    dy: Array

    @property
    def n(self) -> int:
        return self.dx.shape[0]


@dataclass(frozen=True)
class HessianField:
    """Per-pixel 4-vector of composed second differences.

    xy and yx come from distinct compositions (forward-x of forward-y
    vs forward-y of forward-x). They coincide numerically under the
    periodic wrap but are kept as separate channels.
    """

    xx: Array
    xy: Array
    yx: Array
    yy: Array

    @property
    def n(self) -> int:
        return self.xx.shape[0]


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
    this equals -backward_x(p.dx) - backward_y(p.dy) value for value (a
    zero may come out +0 for -0). out, when given, is a (2, n, n)
    scratch array, and the result is written into out[0].
    """
    out = np.empty((2, *p.dx.shape)) if out is None else out
    _x_difference(p.dx, out[0], -1)
    np.subtract(p.dy[:-1], p.dy[1:], out=out[1, 1:])
    np.subtract(p.dy[-1:], p.dy[:1], out=out[1, :1])
    return np.add(out[0], out[1], out=out[0])


def hessian(v: Array) -> HessianField:
    """Second-difference Hessian stack of a grid."""
    fx = forward_x(v)
    fy = forward_y(v)
    return HessianField(
        xx=backward_x(fx),
        xy=forward_x(fy),
        yx=forward_y(fx),
        yy=backward_y(fy),
    )


def hessian_adjoint(ph: HessianField) -> Array:
    """Adjoint of hessian, channel by channel."""
    return (
        forward_x(backward_x(ph.xx))
        + backward_y(backward_x(ph.xy))
        + backward_x(backward_y(ph.yx))
        + forward_y(backward_y(ph.yy))
    )


def grad_norms(p: GradientField) -> Array:
    """Per-pixel Euclidean norm sqrt(dx**2 + dy**2)."""
    return np.hypot(p.dx, p.dy)


@dataclass(frozen=True)
class OperatorSymbols:
    """2D DFT symbols of the normal operators.

    dtd diagonalizes grad_adjoint(grad(.)), hth diagonalizes
    hessian_adjoint(hessian(.)) under numpy's fft2 convention.
    Both vanish at the zero frequency (constants in the kernel).
    """

    n: int
    dtd: Array
    hth: Array


def compute_symbols(n: int, verify: bool = False) -> OperatorSymbols:
    """Analytic Fourier symbols on an n x n periodic grid.

    dtd(k1, k2) = 4 sin^2(pi k1 / n) + 4 sin^2(pi k2 / n) and
    hth = dtd**2. With verify=True the symbols are cross-checked
    against the DFT of the operators' impulse responses (max abs
    deviation 1e-10); intended for test builds.
    """
    if n < 2:
        raise ValueError(f"grid side must be >= 2, got {n}")
    s = 4.0 * np.sin(np.pi * np.arange(n) / n) ** 2
    dtd = s[:, None] + s[None, :]
    hth = dtd**2
    # contract: clamp any round-off below zero (none arises from sin^2)
    dtd = np.maximum(dtd, 0.0)
    hth = np.maximum(hth, 0.0)
    sym = OperatorSymbols(n=n, dtd=dtd, hth=hth)
    if verify:
        _verify_symbols(sym)
    return sym


def _verify_symbols(sym: OperatorSymbols, tol: float = 1e-10) -> None:
    """Compare analytic symbols to the DFT of impulse responses."""
    n = sym.n
    e = np.zeros((n, n))
    e[0, 0] = 1.0
    dtd_fft = np.fft.fft2(grad_adjoint(grad(e)))
    hth_fft = np.fft.fft2(hessian_adjoint(hessian(e)))
    dev = max(
        np.abs(dtd_fft - sym.dtd).max(),
        np.abs(hth_fft - sym.hth).max(),
    )
    if dev > tol:
        raise AssertionError(
            f"operator symbols disagree with impulse-response DFT by {dev:.3e}"
        )
