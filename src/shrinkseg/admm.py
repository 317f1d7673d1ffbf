"""Splitting solver for the support-constrained inner problem.

Each sweep alternates a closed-form shrinkage on the gradient
auxiliary, one exact coupled linear solve in Fourier space, and a dual
ascent step. The linear solve is exact per frequency because both
operator symbols are diagonal there, so no warm start is needed.
Everything that stays fixed during one inner solve (the transformed
constant right-hand sides and the inverted 2x2 per-frequency systems)
is built once by spectral_system, on the half spectrum of the real
FFT; a sweep then costs one rfft2 and two irfft2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import ModelParams
from .grid import (
    Array,
    GradientField,
    OperatorSymbols,
    as_grid,
    grad,
    grad_adjoint,
    grad_norms,
)
from .support import SupportSet

_TINY = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class AdmmParams:
    """Penalty weight and stopping rule of the inner solver."""

    r: float = 10.0
    tol_in: float = 1e-4
    maxit_in: int = 100

    def __post_init__(self):
        if not (math.isfinite(self.r) and self.r > 0):
            raise ValueError(f"r must be positive, got {self.r!r}")
        if not (math.isfinite(self.tol_in) and self.tol_in >= 0):
            raise ValueError(f"tol_in must be nonnegative, got {self.tol_in!r}")
        if self.maxit_in < 1:
            raise ValueError(f"maxit_in must be at least 1, got {self.maxit_in!r}")


@dataclass(frozen=True)
class InnerResult:
    """Solution pair plus the diagnostics needed by the outer loop."""

    u: Array
    v: Array
    iters: int
    constraint_sup: float
    primal_residuals: tuple[float, ...]


def shrink_group(z, threshold: float) -> np.ndarray:
    """Minimizer of threshold*|q| + |q - z|^2/2 over 2-vectors q.

    Scales z toward the origin by 1 - threshold/|z|, clamped at zero;
    the zero vector maps to itself for any threshold.
    """
    z = np.asarray(z, dtype=np.float64)
    norm = float(np.hypot(z[0], z[1]))
    if norm == 0.0:
        return np.zeros(2)
    return max(1.0 - threshold / norm, 0.0) * z


def _shrink_thresholds(weights: Array, active: Array, alpha: float, r: float) -> Array:
    """Per-pixel shrink thresholds alpha * weights / r for one inner solve.

    Frozen pixels get +inf, so the shrink zeroes them without a mask.
    Active thresholds are floored at the smallest normal float, which
    keeps the shrink's denominator positive even at zero-norm pixels.
    """
    return np.where(active, np.maximum(alpha * weights / r, _TINY), np.inf)


def _shrink_field(g: GradientField, thresholds: Array) -> GradientField:
    """Pixelwise group shrinkage of g, one pass with no masked indexing.

    Scales each pixel by max(|g| - t, 0) / max(|g|, t), which equals
    max(1 - t/|g|, 0) wherever |g| > 0 and is exactly zero where
    |g| = 0 or t = +inf. Every threshold must be positive (+inf allowed),
    as _shrink_thresholds ensures.
    """
    norms = np.sqrt(g.dx * g.dx + g.dy * g.dy)
    scale = np.maximum(norms - thresholds, 0.0) / np.maximum(norms, thresholds)
    return GradientField(scale * g.dx, scale * g.dy)


@dataclass(frozen=True)
class SpectralSystem:
    """Constant spectral data of one inner solve, on the rfft2 half spectrum.

    Each frequency carries the 2x2 system [[a, 1], [1, b]] with
    a = 1 + rho + r dtd and b = 1 + gamma + beta hth; its inverse is
    [[b, -1], [-1, a]] / det with det = a b - 1. All arrays have shape
    (n, n // 2 + 1).
    """

    n: int
    r: float
    rhs_hat: Array  # rfft2(f + rho u_k)
    f_hat: Array  # rfft2(f)
    b_det: Array
    a_det: Array
    inv_det: Array


def _check_hermitian(name: str, symbol: Array) -> None:
    """Raise unless symbol[k] == symbol[-k mod n] to 1e-9 relative.

    The half-spectrum solve keeps only k2 <= n // 2 and relies on this
    symmetry to stand for the other half; a symbol without it would
    give a wrong real (u, v) with no other sign of failure.
    """
    mirrored = np.roll(symbol[::-1, ::-1], 1, axis=(0, 1))
    gap = float(np.abs(symbol - mirrored).max())
    if not gap <= 1e-9 * float(np.abs(symbol).max()):
        raise FloatingPointError(
            f"operator symbol {name} is not Hermitian-symmetric: "
            f"max |{name}[k] - {name}[-k]| = {gap:.3e}"
        )


def spectral_system(
    f: Array,
    u_k: Array,
    symbols: OperatorSymbols,
    params: ModelParams,
    rho: float,
    r: float,
) -> SpectralSystem:
    """Transform the constant right-hand sides and invert the per-frequency
    2x2 systems once, for every solve_uv call of one inner solve.

    Raises ValueError when the grids and the symbol table disagree in
    size, and FloatingPointError when a symbol is not Hermitian-symmetric.
    """
    f = as_grid(f, "f")
    u_k = as_grid(u_k, "u_k")
    n = f.shape[0]
    if u_k.shape != f.shape or symbols.n != n:
        raise ValueError("f, u_k and the symbol table must share one grid size")
    _check_hermitian("dtd", symbols.dtd)
    _check_hermitian("hth", symbols.hth)

    half = n // 2 + 1
    a = 1.0 + rho + r * symbols.dtd[:, :half]
    b = 1.0 + params.gamma + params.beta * symbols.hth[:, :half]
    det = a * b - 1.0
    return SpectralSystem(
        n=n,
        r=r,
        rhs_hat=np.fft.rfft2(f + rho * u_k),
        f_hat=np.fft.rfft2(f),
        b_det=b / det,
        a_det=a / det,
        inv_det=1.0 / det,
    )


def solve_uv(
    system: SpectralSystem, qbar: GradientField, mu: GradientField
) -> tuple[Array, Array]:
    """Exact solve of the coupled stationarity system for (u, v).

    Solves
        (1 + rho) u + r D^T D u + v = f + rho u_k - D^T (mu - r qbar)
        u + (1 + gamma) v + beta H^T H v = f
    one frequency at a time: both operators diagonalize under the DFT,
    leaving a 2x2 system per frequency whose inverse system holds.
    Both right-hand sides are real, so only the rfft2 half spectrum is
    formed: one forward transform of the dual pull and one inverse
    transform per unknown. u and v are real by construction.
    """
    r = system.r
    pull = GradientField(mu.dx - r * qbar.dx, mu.dy - r * qbar.dy)
    rhs = system.rhs_hat - np.fft.rfft2(grad_adjoint(pull))
    shape = (system.n, system.n)
    u = np.fft.irfft2(system.b_det * rhs - system.inv_det * system.f_hat, s=shape)
    v = np.fft.irfft2(system.a_det * system.f_hat - system.inv_det * rhs, s=shape)
    return u, v


def admm_solve(
    f: Array,
    u_k: Array,
    v_k: Array,
    weights: Array,
    support: SupportSet,
    params: ModelParams,
    rho: float,
    admm: AdmmParams,
    symbols: OperatorSymbols,
) -> InnerResult:
    """Run the splitting iteration from (u_k, v_k) with zero duals.

    weights must hold the potential derivative at u_k on the active
    set; frozen pixels get a hard zero in the auxiliary variable, so
    their gradient is driven to zero by the penalty. Stops when the
    stacked (u, v) update is small relative to the previous iterate.
    """
    f = as_grid(f, "f")
    u = as_grid(u_k, "u_k")
    v = as_grid(v_k, "v_k")
    weights = np.asarray(weights, dtype=np.float64)
    if not (f.shape == u.shape == v.shape == weights.shape == support.active.shape):
        raise ValueError("admm_solve inputs must share one grid shape")

    r = admm.r
    system = spectral_system(f, u, symbols, params, rho, r)
    thresholds = _shrink_thresholds(weights, support.active, params.alpha, r)
    mu = GradientField(np.zeros_like(f), np.zeros_like(f))
    du = grad(u)
    residuals: list[float] = []
    iters = 0

    for iters in range(1, admm.maxit_in + 1):
        shifted = GradientField(du.dx + mu.dx / r, du.dy + mu.dy / r)
        q = _shrink_field(shifted, thresholds)

        u_new, v_new = solve_uv(system, q, mu)

        du = grad(u_new)
        gap_x = du.dx - q.dx
        gap_y = du.dy - q.dy
        mu = GradientField(mu.dx + r * gap_x, mu.dy + r * gap_y)
        residuals.append(math.sqrt(float((gap_x * gap_x + gap_y * gap_y).max())))

        step_u = u_new - u
        step_v = v_new - v
        change = math.sqrt(float(np.vdot(step_u, step_u)) + float(np.vdot(step_v, step_v)))
        denom = math.sqrt(float(np.vdot(u, u)) + float(np.vdot(v, v)))
        u, v = u_new, v_new
        if change <= admm.tol_in * denom:
            break

    # du is grad(u) here: the loop carries the gradient of its last iterate
    norms = grad_norms(du)
    frozen = ~support.active
    constraint_sup = float(norms[frozen].max()) if frozen.any() else 0.0
    return InnerResult(u, v, iters, constraint_sup, tuple(residuals))
