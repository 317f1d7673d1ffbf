"""Splitting solver for the support-constrained inner problem.

Each sweep alternates a closed-form shrinkage on the gradient
auxiliary, one exact coupled linear solve in Fourier space, and a dual
ascent step. The linear solve is exact per frequency because both
operator symbols are diagonal there, so no warm start is needed.
Everything that stays fixed during one inner solve (the transformed
constant right-hand sides and the inverted 2x2 per-frequency systems)
is built once by spectral_system, on the half spectrum of the real
FFT. v stays in that half spectrum during the loop, and the stopping
test measures it there by Parseval, so a sweep costs one rfft2 and one
irfft2; a single irfft2 after the loop returns v to pixels.
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
    """Solution pair plus the diagnostics needed by the outer loop.

    primal_residual is max |Du - q| over pixels at the last sweep, with
    q the shrunk gradient auxiliary.
    """

    u: Array
    v: Array
    iters: int
    constraint_sup: float
    primal_residual: float


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


def _shrink_field(g: Array, thresholds: Array) -> Array:
    """Pixelwise group shrinkage of the stacked field g, in place.

    g has shape (2, n, n). Scales each pixel by
    max(|g| - t, 0) / max(|g|, t), which equals max(1 - t/|g|, 0)
    wherever |g| > 0 and is exactly zero where |g| = 0 or t = +inf.
    Every threshold must be positive (+inf allowed), as
    _shrink_thresholds ensures.
    """
    squares = g * g
    norms = np.add(squares[0], squares[1], out=squares[0])
    np.sqrt(norms, out=norms)
    denom = np.maximum(norms, thresholds, out=squares[1])
    np.subtract(norms, thresholds, out=norms)
    np.maximum(norms, 0.0, out=norms)
    norms /= denom
    g *= norms
    return g


def _rfft2(x: Array) -> Array:
    """np.fft.rfft2(x), bit for bit, without its per-call axis handling."""
    return np.fft.fft(np.fft.rfft(x, axis=1), axis=0)


def _irfft2(x_hat: Array, n: int) -> Array:
    """np.fft.irfft2(x_hat, s=(n, n)), bit for bit."""
    return np.fft.irfft(np.fft.ifft(x_hat, axis=0), n=n, axis=1)


def _half_spectrum_sq_norm(x_hat: Array, n: int) -> float:
    """Squared norm of the real n x n grid whose rfft2 is x_hat.

    Parseval over the full spectrum, rebuilt from the half spectrum:
    every column but the zero one (and the Nyquist one when n is even)
    stands for itself and its Hermitian mirror.
    """
    total = 2.0 * np.vdot(x_hat, x_hat).real
    total -= np.vdot(x_hat[:, 0], x_hat[:, 0]).real
    if n % 2 == 0:
        total -= np.vdot(x_hat[:, -1], x_hat[:, -1]).real
    return float(total) / (n * n)


@dataclass(frozen=True)
class SpectralSystem:
    """Constant spectral data of one inner solve, on the rfft2 half spectrum.

    Each frequency carries the 2x2 system [[a, 1], [1, b]] with
    a = 1 + rho + r dtd and b = 1 + gamma + beta hth; its inverse is
    [[b, -1], [-1, a]] / det with det = a b - 1. u0_hat and v0_hat are
    the solution for a zero dual pull; solve_uv adds the pull's share
    through b_det and inv_det. All arrays have shape (n, n // 2 + 1).
    """

    n: int
    r: float
    u0_hat: Array  # (b rfft2(f + rho u_k) - rfft2(f)) / det
    v0_hat: Array  # (a rfft2(f) - rfft2(f + rho u_k)) / det
    b_det: Array
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
    inv_det = 1.0 / (a * b - 1.0)
    rhs_hat = _rfft2(f + rho * u_k)
    f_hat = _rfft2(f)
    return SpectralSystem(
        n=n,
        r=r,
        u0_hat=(b * rhs_hat - f_hat) * inv_det,
        v0_hat=(a * f_hat - rhs_hat) * inv_det,
        b_det=b * inv_det,
        inv_det=inv_det,
    )


def solve_uv(
    system: SpectralSystem, qbar: GradientField, mu: GradientField
) -> tuple[Array, Array]:
    """Exact solve of the coupled stationarity system for (u, v_hat).

    Solves
        (1 + rho) u + r D^T D u + v = f + rho u_k - D^T (mu - r qbar)
        u + (1 + gamma) v + beta H^T H v = f
    one frequency at a time: both operators diagonalize under the DFT,
    leaving a 2x2 system per frequency whose inverse system holds.
    Both right-hand sides are real, so only the rfft2 half spectrum is
    formed: one forward transform of the dual pull P, then
    u = irfft2(u0_hat - b_det P) and v_hat = v0_hat + inv_det P.
    u is real; v stays spectral, v_hat being rfft2(v), and
    irfft2(v_hat, s=(n, n)) gives v.
    """
    r = system.r
    pull = GradientField(mu.dx - r * qbar.dx, mu.dy - r * qbar.dy)
    p_hat = _rfft2(grad_adjoint(pull))
    u = _irfft2(system.u0_hat - system.b_det * p_hat, system.n)
    return u, system.v0_hat + system.inv_det * p_hat


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
    n = f.shape[0]
    system = spectral_system(f, u, symbols, params, rho, r)
    thresholds = _shrink_thresholds(weights, support.active, params.alpha, r)
    # stacked (2, n, n) buffers: gradient of u, shrunk auxiliary q, dual mu
    du = np.empty((2, n, n))
    q = np.empty((2, n, n))
    mu = np.zeros((2, n, n))
    gap = np.empty((2, n, n))
    q_field = GradientField(q[0], q[1])
    mu_field = GradientField(mu[0], mu[1])
    grad(u, out=du)
    v_hat = _rfft2(v)
    u_sq = float(np.vdot(u, u))
    v_sq = _half_spectrum_sq_norm(v_hat, n)
    iters = 0

    for iters in range(1, admm.maxit_in + 1):
        np.divide(mu, r, out=q)
        q += du
        _shrink_field(q, thresholds)

        u_new, v_hat_new = solve_uv(system, q_field, mu_field)

        grad(u_new, out=du)
        np.subtract(du, q, out=gap)
        gap *= r
        mu += gap

        step_u = u_new - u
        change = float(np.vdot(step_u, step_u))
        change += _half_spectrum_sq_norm(v_hat_new - v_hat, n)
        u, v_hat = u_new, v_hat_new
        if math.sqrt(change) <= admm.tol_in * math.sqrt(u_sq + v_sq):
            break
        u_sq = float(np.vdot(u, u))
        v_sq = _half_spectrum_sq_norm(v_hat, n)

    # du is grad(u) and q the last shrink: the loop ends on a full sweep
    np.subtract(du, q, out=gap)
    primal_residual = math.sqrt(float((gap[0] * gap[0] + gap[1] * gap[1]).max()))
    norms = grad_norms(GradientField(du[0], du[1]))
    frozen = ~support.active
    constraint_sup = float(norms[frozen].max()) if frozen.any() else 0.0
    return InnerResult(u, _irfft2(v_hat, n), iters, constraint_sup, primal_residual)
