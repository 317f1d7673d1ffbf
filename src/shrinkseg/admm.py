"""Splitting solver for the support-constrained inner problem.

Each sweep alternates a closed-form shrinkage on the gradient
auxiliary, one exact coupled linear solve in Fourier space, and a dual
ascent step on the scaled dual lam = mu / r (Boyd et al. 2011, sec.
3.1.1): q = shrink(Du + lam), w = lam - q, P = rfft2(D^T w),
u = irfft2(u0_hat - u_pull P), lam = w + Du. The linear solve is exact
per frequency because both operator symbols are diagonal there, so no
warm start is needed. Everything fixed during one inner solve is built
once by spectral_system on the half spectrum of the real FFT. Both
u_hat and v_hat are affine in P, so the stopping test measures the
(u, v) update and norm from P alone: a sweep costs one rfft2 and one
irfft2, and v is formed once, after the loop.

Sweeps after the first, which measures its update in pixels, allocate
nothing: admm_solve makes every array a sweep writes (the FFT spectra,
u, the stopping-test spectra, shrink scratch) once per solve, and each
step writes into them with out=. Frozen pixels have an infinite
threshold, so their q is 0 and their dual never loses q; when few
pixels are active, the shrink and the subtraction of q run on the
active pixels only, gathered by their flat ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import ModelParams
from .grid import Array, as_grid, compute_symbols, grad, grad_adjoint
from .support import SupportSet

_TINY = np.finfo(np.float64).tiny
# Below this active fraction the shrink gathers the active pixels. The
# gathered shrink and dual step break even with the dense ones at about
# 35% active (n = 64 and 256) and cost a quarter of them at 3% at n = 64.
_GATHER_BELOW = 0.25


@dataclass(frozen=True)
class AdmmParams:
    """Penalty weight and stopping rule of the inner solver.

    tol_in is the relative (u, v) update at which an exact solve stops.
    decompose may stop earlier outer passes at a looser tolerance, but
    never below tol_in, and a run only stops on a pass solved at tol_in.
    maxit_in caps the sweeps of every solve.
    """

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
    """Solution pair plus the number of sweeps that produced it."""

    u: Array
    v: Array
    iters: int


def _shrink_thresholds(weights: Array, active: Array, alpha: float, r: float) -> Array:
    """Per-pixel shrink thresholds alpha * weights / r for one inner solve.

    Frozen pixels get +inf, so the shrink zeroes them without a mask.
    Active thresholds are floored at the smallest normal float, which
    keeps the shrink's denominator positive even at zero-norm pixels.
    """
    return np.where(active, np.maximum(alpha * weights / r, _TINY), np.inf)


def _shrink_field(g: Array, thresholds: Array, work: Array | None = None) -> Array:
    """Pixelwise group shrinkage of the stacked field g, in place.

    g has shape (2, n, m), or (2, k) for k pixels gathered by admm_solve
    together with their k thresholds. Scales each pixel by
    max(|g| - t, 0) / max(|g|, t), which equals max(1 - t/|g|, 0)
    wherever |g| > 0 and is exactly zero where |g| = 0 or t = +inf.
    Every threshold must be positive (+inf allowed), as
    _shrink_thresholds ensures. work, when given, is a scratch array of
    g's shape.
    """
    squares = np.multiply(g, g, out=work)
    norms = np.add(squares[0], squares[1], out=squares[0])
    np.sqrt(norms, out=norms)
    denom = np.maximum(norms, thresholds, out=squares[1])
    np.subtract(norms, thresholds, out=norms)
    np.maximum(norms, 0.0, out=norms)
    norms /= denom
    g *= norms
    return g


@dataclass(frozen=True)
class SpectralSystem:
    """Constant spectral data of one inner solve, on the rfft2 half spectrum.

    Each frequency carries the 2x2 system [[a, 1], [1, b]] with
    a = 1 + rho + r dtd and b = 1 + gamma + beta hth; its inverse is
    [[b, -1], [-1, a]] / det with det = a b - 1. For the scaled pull w
    and P = rfft2(D^T w), u_hat = u0_hat - u_pull P and
    v_hat = v0_hat + v_pull P, with u_pull = r b / det, v_pull = r / det.

    Stopping test: by Parseval, two sweeps of one solve differ by
    ||du||^2 + ||dv||^2 = ||step_weight dP||^2, and a sweep's iterate
    has ||u||^2 + ||v||^2 = norm_floor + ||step_weight P + norm_offset||^2
    (a rotation per frequency splits (u_hat, v_hat) into a fixed part and
    a part affine in P, so no terms cancel). u_pull and step_weight are
    real but held as complex128: numpy multiplies complex by complex
    faster than it casts a real factor. Arrays are (n, m // 2 + 1) for
    an n x m grid.
    """

    shape: tuple[int, int]
    u0_hat: Array  # (b rfft2(f + rho u_k) - rfft2(f)) / det
    v0_hat: Array  # (a rfft2(f) - rfft2(f + rho u_k)) / det
    u_pull: Array
    v_pull: Array
    step_weight: Array
    norm_offset: Array
    norm_floor: float

    def v_hat(self, p_hat: Array) -> Array:
        """rfft2(v) of the sweep whose transformed pull is p_hat."""
        return self.v0_hat + self.v_pull * p_hat


def spectral_system(
    f: Array,
    u_k: Array,
    params: ModelParams,
    rho: float,
    r: float,
) -> SpectralSystem:
    """Transform the constant right-hand sides, invert the per-frequency
    2x2 systems and weigh the stopping test once per inner solve.

    The operator symbols come from compute_symbols on the grid of f.
    Raises ValueError when f and u_k differ in size.
    """
    f = as_grid(f, "f")
    u_k = as_grid(u_k, "u_k")
    if u_k.shape != f.shape:
        raise ValueError("f and u_k must share one grid size")
    symbols = compute_symbols(f.shape)

    a = 1.0 + rho + r * symbols.dtd
    b = 1.0 + params.gamma + params.beta * symbols.hth
    inv_det = 1.0 / (a * b - 1.0)
    rhs_hat = np.fft.rfft2(f + rho * u_k)
    f_hat = np.fft.rfft2(f)
    u0_hat = (b * rhs_hat - f_hat) * inv_det
    v0_hat = (a * f_hat - rhs_hat) * inv_det
    u_pull = r * (b * inv_det)
    v_pull = r * inv_det
    gain = np.hypot(u_pull, v_pull)
    cos, sin = v_pull / gain, u_pull / gain
    parseval = np.sqrt(symbols.weights)
    fixed = parseval * (cos * u0_hat + sin * v0_hat)
    return SpectralSystem(
        shape=f.shape,
        u0_hat=u0_hat,
        v0_hat=v0_hat,
        u_pull=u_pull.astype(np.complex128),
        v_pull=v_pull,
        step_weight=(parseval * gain).astype(np.complex128),
        norm_offset=parseval * (cos * v0_hat - sin * u0_hat),
        norm_floor=float(np.vdot(fixed, fixed).real),
    )


def _uv_buffers(shape: tuple[int, int]) -> tuple[Array, Array, Array]:
    """Empty (spectrum, P, u) buffers of one solve_uv call on an n x m grid."""
    half = (shape[0], shape[1] // 2 + 1)
    return np.empty(half, np.complex128), np.empty(half, np.complex128), np.empty(shape)


def solve_uv(
    system: SpectralSystem,
    pull: Array,
    work: Array | None = None,
    out: tuple[Array, Array, Array] | None = None,
) -> tuple[Array, Array]:
    """Exact solve of the coupled stationarity system; returns (u, P).

    pull is the stacked (2, n, m) scaled pull w = mu / r - qbar. Solves
        (1 + rho) u + r D^T D u + v = f + rho u_k - r D^T w
        u + (1 + gamma) v + beta H^T H v = f
    one frequency at a time: both operators diagonalize under the DFT,
    leaving a 2x2 system per frequency. Both right-hand sides are real,
    so only the rfft2 half spectrum is formed: P = rfft2(D^T w) and
    u = irfft2(u0_hat - u_pull P), while v = irfft2(system.v_hat(P)).
    work, when given, is a C-contiguous (2, n, m) scratch array for D^T w.
    out, when given, is the (spectrum, P, u) triple of _uv_buffers that
    the transforms write into, so that admm_solve allocates them once;
    the returned u and P are its last two arrays. The results equal
    np.fft.rfft2 and np.fft.irfft2 bit for bit.
    """
    spectrum, p_hat, u = _uv_buffers(system.shape) if out is None else out
    np.fft.rfft(grad_adjoint(pull, work), axis=1, out=spectrum)
    np.fft.fft(spectrum, axis=0, out=p_hat)
    np.multiply(system.u_pull, p_hat, out=spectrum)
    np.subtract(system.u0_hat, spectrum, out=spectrum)
    np.fft.ifft(spectrum, axis=0, out=spectrum)
    return np.fft.irfft(spectrum, n=system.shape[1], axis=1, out=u), p_hat


def admm_solve(
    f: Array,
    u_k: Array,
    v_k: Array,
    weights: Array,
    support: SupportSet,
    params: ModelParams,
    rho: float,
    admm: AdmmParams,
    *,
    tol: float | None = None,
) -> InnerResult:
    """Run the splitting iteration from (u_k, v_k) with zero duals.

    weights must hold the potential derivative at u_k on the active
    set; frozen pixels get a hard zero in the auxiliary variable, so
    their gradient is driven to zero by the penalty. Stops when the
    stacked (u, v) update is at most tol times the previous iterate's
    norm, or after admm.maxit_in sweeps. tol defaults to admm.tol_in,
    which is also its floor.
    """
    f = as_grid(f, "f")
    u_k = as_grid(u_k, "u_k")
    v_k = as_grid(v_k, "v_k")
    weights = np.asarray(weights, dtype=np.float64)
    if not (f.shape == u_k.shape == v_k.shape == weights.shape == support.active.shape):
        raise ValueError("admm_solve inputs must share one grid shape")

    shape = f.shape
    system = spectral_system(f, u_k, params, rho, admm.r)
    thresholds = _shrink_thresholds(weights, support.active, params.alpha, admm.r)
    # stacked (2, n, m) buffers: gradient of u, scratch, and the scaled
    # dual lam (holding the pull lam - q during the solve)
    du, work = np.empty((2, *shape)), np.empty((2, *shape))
    lam = np.zeros((2, *shape))
    uv_out = _uv_buffers(shape)
    # step_weight * P of this sweep and the last, and the test's scratch
    scaled, prev, step = (np.empty_like(system.u0_hat) for _ in range(3))
    ids = np.flatnonzero(support.active)
    if ids.size < _GATHER_BELOW * f.size:
        # flat ids of the active pixels in both components of a field
        ids = np.stack([ids, ids + f.size])
        thresholds = thresholds.ravel()[ids[0]]
        q, lam_at, shrink_work = (np.empty(ids.shape) for _ in range(3))
    else:
        ids, q, shrink_work = None, np.empty((2, *shape)), work
    grad(u_k, out=du)
    tol = admm.tol_in if tol is None else max(tol, admm.tol_in)

    for iters in range(1, admm.maxit_in + 1):
        if ids is None:
            _shrink_field(np.add(du, lam, out=q), thresholds, shrink_work)
            lam -= q
        else:  # q = 0 and lam keeps its value at every frozen pixel
            # mode="clip" (a no-op on valid ids) writes straight into out,
            # where the default mode would fill a temporary first
            du.take(ids, out=q, mode="clip")
            q += lam.take(ids, out=lam_at, mode="clip")
            lam_at -= _shrink_field(q, thresholds, shrink_work)
            lam.put(ids, lam_at)
        u, p_hat = solve_uv(system, lam, work, uv_out)
        grad(u, out=du)
        lam += du

        np.multiply(system.step_weight, p_hat, out=scaled)
        if iters == 1:  # (u_k, v_k) has no P form: measure in pixels
            step_u = u - u_k
            step_v = np.fft.irfft2(system.v_hat(p_hat), s=shape) - v_k
            change = float(np.vdot(step_u, step_u)) + float(np.vdot(step_v, step_v))
            size = float(np.vdot(u_k, u_k)) + float(np.vdot(v_k, v_k))
        else:
            np.subtract(scaled, prev, out=step)
            change = np.vdot(step, step).real
        if math.sqrt(change) <= tol * math.sqrt(size):
            break
        scaled, prev = prev, scaled
        np.add(prev, system.norm_offset, out=step)
        size = system.norm_floor + np.vdot(step, step).real

    return InnerResult(u, np.fft.irfft2(system.v_hat(p_hat), s=shape), iters)
