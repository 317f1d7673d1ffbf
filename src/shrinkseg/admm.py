"""Splitting solver for the support-constrained inner problem.

Each sweep alternates a closed-form shrinkage on the gradient
auxiliary, one exact coupled linear solve in Fourier space, and a dual
ascent step on the scaled dual lam = mu / r (Boyd et al. 2011, sec.
3.1.1): q = shrink(Du + lam), w = lam - q, P = rfft2(D^T w), u =
irfft2(u0_hat - u_pull P), lam = w + Du. The linear solve is exact per
frequency because both operator symbols are diagonal there, so it needs
no iteration of its own; only the dual can start warm, from the lam a
previous solve ended with. A RunState, made once per decompose run,
holds on the half spectrum of the real FFT what its f, model, rho and r
fix, and its start sets what the pass start (u_k, v_k) adds.
Both u_hat and v_hat are affine in P, so the stopping test measures the
(u, v) update and norm from P alone: a sweep costs one rfft2 and one
irfft2, and v is formed once, after the loop. The same rotation gives
the distance from the pass start (u_k, v_k) in P, which is the first
sweep's update. A loose solve (tol above tol_in, as decompose asks for
early outer passes) also stops on a relative error: once the update is
at most _RELATIVE_STOP times that distance. Every sweep measures its
update, at one subtraction and one dot product. The norm and the
distance are evaluated lazily: by the triangle inequality each is at
most its last exact value plus the updates since, and the exact value
(one add and one dot product) is formed only when that bound would
pass the test, so every stop is the one an exact test at every sweep
takes.

Every _MIX_EVERY-th sweep, the scaled pull w = lam - q is replaced by
the type-II Anderson extrapolation of the block map "_MIX_EVERY
sweeps" over its last two block differences (_Mixer): the sweep map is
a fixed-point iteration that converges linearly in its tail, and the
extrapolation cuts the sweeps a solve needs by a fifth to two fifths
on the fixtures. Mixing only every _MIX_EVERY-th sweep keeps the cost
of one update at a fraction of a sweep; the history restarts whenever
a block's residual grows, and a solve never stops on a mixed sweep.
The mixing history is five (2, n, m) arrays per solve.

No sweep allocates: admm_solve makes every array a sweep writes (the
FFT spectra, u, the stopping-test spectra, shrink scratch, the mixing
history) once per solve, and each step writes into them with out=.
Frozen pixels have an infinite threshold, so their q is 0 and their
dual never loses q; when few pixels are active, the shrink and the
subtraction of q run on the active pixels only, gathered by their flat
ids.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
from dataclasses import dataclass

import numpy as np

from .energy import ModelParams
from .grid import Array, as_grid, check_count, check_fields, compute_symbols, grad, grad_adjoint
from .support import SupportSet

_TINY = np.finfo(np.float64).tiny
# Below this active fraction the shrink gathers the active pixels. The
# gathered shrink and dual step break even with the dense ones at about
# 35% active (n = 64 and 256) and cost a quarter of them at 3% at n = 64.
_GATHER_BELOW = 0.25
# Sweeps per Anderson block (see _Mixer). Mixing on every sweep cut
# the suite64 sweeps by 20-34% (memory 2-5), but one update of that
# form cost 40-90 us against a 200 us sweep at n = 64; every 8th sweep
# keeps most of the cut at an eighth of the cost.
_MIX_EVERY = 8
# A 2x2 Anderson system whose determinant is at most this fraction of
# the product of its diagonal is near singular.
_SINGULAR = 1e-10
# A loose solve (see admm_solve) stops once its (u, v) update is at
# most this fraction of the distance it has moved from the pass start.
_RELATIVE_STOP = 3e-4
# admm_solve evaluates an exact norm or distance only where its upper
# bound, times this factor, would pass the stopping test; the factor
# covers the bound's rounding, so every stop is the exact test's.
_BOUND_SLACK = 1.0 + 1e-9
# numpy's bundled OpenBLAS; another BLAS build lacks these two symbols
_BLAS = ctypes.CDLL(np._core._multiarray_umath.__file__)
_SET_THREADS = getattr(_BLAS, "scipy_openblas_set_num_threads64_", None)
_GET_THREADS = getattr(_BLAS, "scipy_openblas_get_num_threads64_", None)


@contextlib.contextmanager
def one_blas_thread():
    """Hold numpy's OpenBLAS at one thread, restoring the caller's count
    on exit, also after an exception. Threaded dot products (from 16384
    entries) change the last bits of a sum, and stalled single calls on a
    2-core host; held at one thread, stage one's u and v do not depend on
    OPENBLAS_NUM_THREADS. The count is process-wide: while a solver runs,
    BLAS calls from other Python threads run on one thread too, and
    concurrent calls from several Python threads can leave it at 1. Where
    numpy's BLAS exports no such setter (another BLAS build), it does
    nothing."""
    with contextlib.ExitStack() as restore:
        if _SET_THREADS is not None:
            restore.callback(_SET_THREADS, _GET_THREADS())
            _SET_THREADS(1)
        yield


@dataclass(frozen=True)
class AdmmParams:
    """Penalty weight and stopping rule of the inner solver.

    tol_in is the relative (u, v) update at which an exact solve stops.
    decompose may stop earlier outer passes at a looser tolerance, but
    never below tol_in, and a run only stops on a pass solved at tol_in.
    Such a loose pass also stops once its update is small against the
    distance the pass has moved (see admm_solve); a solve at tol_in
    never does. maxit_in caps the sweeps of every solve.
    """

    r: float = 10.0
    tol_in: float = 1e-4
    maxit_in: int = 100

    def __post_init__(self):
        check_fields(self, ("r",), "finite and positive")
        check_fields(self, ("tol_in",), "finite and nonnegative")
        check_count(self.maxit_in, "maxit_in", 1)


@dataclass(frozen=True)
class InnerResult:
    """Solution pair plus the number of sweeps that produced it.

    lam is the scaled dual that admm_solve ended with, the warm start of
    a later solve; reduced_solve has none and leaves it None. v_hat is
    the rfft2 half spectrum that both solvers form v from, which
    decomposition_energy can take in place of its own transform.
    """

    u: Array
    v: Array
    iters: int
    lam: Array | None = None
    v_hat: Array | None = None


def _checked_weights(weights: Array) -> Array:
    """weights as float64; raises ValueError unless all are finite and >= 0."""
    weights = np.asarray(weights, dtype=np.float64)
    if not (weights.min() >= 0.0 and weights.max() < math.inf):
        raise ValueError("weights must be finite and nonnegative")
    return weights


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
    # one multiply per component: numpy's broadcast of norms over both
    # is slower and gives the same bits
    np.multiply(g[0], norms, out=g[0])
    np.multiply(g[1], norms, out=g[1])
    return g


class _Mixer:
    """Periodic type-II Anderson mixing of the scaled pull w.

    One sweep maps the pull w (lam just after lam -= q) to
    T(w) = w + Du(w) - shrink(w + 2 Du(w)), a fixed-point map that
    converges linearly in its tail. admm_solve hands end_block the pull
    of every _MIX_EVERY-th sweep, which is G(x) for the block map
    G = T^_MIX_EVERY and the pull x that started the block. With two
    differences of the last three blocks held, w is replaced by the
    type-II extrapolation G(x) - dG gamma, where gamma solves the 2x2
    least squares problem min ||f - dF gamma|| over the residuals
    f = G(x) - x (Walker & Ni 2011; Zhang, O'Donoghue & Boyd 2020;
    periodic Pulay mixing: Banerjee, Suryanarayana & Pask 2016). The
    history is dropped, and plain sweeps go on, whenever a block's
    residual norm grows or the system is near singular (_SINGULAR), so
    zero residuals never divide.

    Holds five (2, n, m) arrays: the block's start x (then its residual
    f), the last residual, the last residual difference, the last G(x)
    and the last difference of G(x).
    """

    def __init__(self, shape: tuple[int, int]):
        self.x, self.f, self.df, self.g, self.dg = (np.empty((2, *shape)) for _ in range(5))
        self.held = 0  # 0, or 1 (f, g) or 2 (also df, dg) blocks of history
        self.f_sq = self.df_sq = 0.0

    def start(self, w: Array) -> None:
        """Start a block at the pull w."""
        np.copyto(self.x, w)

    def end_block(self, w: Array, work: Array) -> bool:
        """End the block at the pull w = G(x), extrapolate w in place when
        the history allows, and start the next block at w. work is a
        (2, n, m) scratch array. Returns whether w was changed."""
        f = np.subtract(w, self.x, out=self.x)
        f_sq = float(np.vdot(f, f))
        if f_sq > self.f_sq:
            self.held = 0
        mixed = False
        if self.held:
            df = np.subtract(f, self.f, out=self.f)
            dg = np.subtract(w, self.g, out=self.g)
            df_sq = float(np.vdot(df, df))
            if self.held == 2:
                cross = float(np.vdot(df, self.df))
                det = df_sq * self.df_sq - cross * cross
                if det > _SINGULAR * df_sq * self.df_sq:
                    b1, b2 = float(np.vdot(df, f)), float(np.vdot(self.df, f))
                    gamma1 = (self.df_sq * b1 - cross * b2) / det
                    gamma2 = (df_sq * b2 - cross * b1) / det
                    np.multiply(self.dg, gamma2, out=work)
                    mixed = True
                else:
                    self.held = 0
            np.copyto(self.dg, w)  # G(x), kept before w is mixed
            if mixed:
                w -= work
                w -= np.multiply(dg, gamma1, out=work)
            self.x, self.f, self.df, self.g, self.dg = self.df, f, df, self.dg, dg
            self.df_sq = df_sq
        else:
            np.copyto(self.g, w)
            self.x, self.f = self.f, f
        self.f_sq = f_sq
        self.held = min(self.held + 1, 2)
        np.copyto(self.x, w)
        return mixed


class RunState:
    """What both inner solvers keep fixed over the passes of one decompose run.

    f, the model, rho and r do not change within a run, so the
    constructor validates f and builds what depends on them alone, on
    the rfft2 half spectrum; start(u_k, v_k) sets what depends on the
    pass start. Each frequency carries the 2x2 system [[a, 1], [1, b]]
    with a = 1 + rho + r dtd and b = 1 + gamma + beta hth; its inverse is
    [[b, -1], [-1, a]] / det with det = a b - 1. For the scaled pull w
    and P = rfft2(D^T w), u_hat = n m (u0_hat - u_pull P) and
    v_hat = v0_hat + v_pull P, with u_pull = r b / (n m det) and
    v_pull = r / det: u0_hat and u_pull carry the 1 / (n m) of the
    inverse transform, so solve_uv inverts without scaling. Folding the
    factor in is exact, and solve_uv's u equals np.fft.irfft2 bit for
    bit, only when n m is a power of two; otherwise they differ in the
    last bits.

    Stopping test: by Parseval, two sweeps of one solve differ by
    ||du||^2 + ||dv||^2 = ||step_weight dP||^2, and a sweep's iterate
    has ||u||^2 + ||v||^2 = norm_floor + ||step_weight P + norm_offset||^2
    (a rotation per frequency, by cos and sin, splits (u_hat, v_hat) into
    a fixed part and a part affine in P, so no terms cancel). The same
    rotation of (u - u_k, v - v_k) gives the iterate's distance from the
    pass start: ||u - u_k||^2 + ||v - v_k||^2 = move_floor
    + ||step_weight P + move_offset||^2, which is also the first sweep's
    update. admm_solve evaluates the norm and the distance only where
    their triangle-inequality bounds would stop the solve. u_pull and
    step_weight are real but held as complex128: numpy multiplies
    complex by complex faster than it casts a real factor.
    """

    def __init__(self, f: Array, params: ModelParams, rho: float, r: float):
        self.f = as_grid(f, "f")
        self.shape = self.f.shape
        self.params, self.rho, self.r = params, rho, r
        symbols = compute_symbols(self.shape)
        self.a = 1.0 + rho + r * symbols.dtd
        self.b = 1.0 + params.gamma + params.beta * symbols.hth  # K = 1 / b
        self.inv_det = 1.0 / (self.a * self.b - 1.0)
        self.f_hat = np.fft.rfft2(self.f)
        u_pull = r * (self.b * self.inv_det)
        self.v_pull = r * self.inv_det
        gain = np.hypot(u_pull, self.v_pull)
        self.cos, self.sin = self.v_pull / gain, u_pull / gain
        self.parseval = np.sqrt(symbols.weights)
        self.u_pull = (u_pull * (1.0 / self.f.size)).astype(np.complex128)
        self.step_weight = (self.parseval * gain).astype(np.complex128)

    def start(self, u_k: Array, v_k: Array) -> RunState:
        """Set u0_hat, v0_hat and the stopping test's floors and offsets
        for the pass start (u_k, v_k); returns the state. Raises
        ValueError unless u_k and v_k are finite grids of f's shape."""
        u_k = as_grid(u_k, "u_k")
        v_k = as_grid(v_k, "v_k")
        if not (self.shape == u_k.shape == v_k.shape):
            raise ValueError("f, u_k and v_k must share one grid size")
        rhs_hat = np.fft.rfft2(self.f + self.rho * u_k)
        u0_hat = (self.b * rhs_hat - self.f_hat) * self.inv_det
        self.v0_hat = (self.a * self.f_hat - rhs_hat) * self.inv_det
        self.norm_floor, self.norm_offset = self._rotate(u0_hat, self.v0_hat)
        self.move_floor, self.move_offset = self._rotate(
            u0_hat - np.fft.rfft2(u_k), self.v0_hat - np.fft.rfft2(v_k)
        )
        self.u0_hat = u0_hat * (1.0 / self.f.size)  # the inverse transform's factor
        return self

    def _rotate(self, u_hat: Array, v_hat: Array) -> tuple[float, Array]:
        """The fixed part's squared norm and the part that moves with P."""
        fixed = self.parseval * (self.cos * u_hat + self.sin * v_hat)
        moving = self.parseval * (self.cos * v_hat - self.sin * u_hat)
        return float(np.vdot(fixed, fixed).real), moving

    def v_hat(self, p_hat: Array) -> Array:
        """rfft2(v) of the sweep whose transformed pull is p_hat."""
        return self.v0_hat + self.v_pull * p_hat


def _uv_buffers(shape: tuple[int, int]) -> tuple[Array, Array, Array]:
    """Empty (spectrum, P, u) buffers of one solve_uv call on an n x m grid."""
    half = (shape[0], shape[1] // 2 + 1)
    return np.empty(half, np.complex128), np.empty(half, np.complex128), np.empty(shape)


def solve_uv(
    state: RunState,
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
    u = irfft2(u0_hat - u_pull P), while v = irfft2(state.v_hat(P)), with
    the fields of state at its last start.
    work, when given, is a C-contiguous (2, n, m) scratch array for D^T w.
    out, when given, is the (spectrum, P, u) triple of _uv_buffers that
    the transforms write into, so that admm_solve allocates them once;
    the returned u and P are its last two arrays. P equals np.fft.rfft2
    bit for bit. u equals np.fft.irfft2 of n m (u0_hat - u_pull P) bit
    for bit when n m is a power of two, and to rounding otherwise: the
    inverse runs with norm="forward" on spectra that already carry its
    1 / (n m).
    """
    spectrum, p_hat, u = _uv_buffers(state.shape) if out is None else out
    np.fft.rfft(grad_adjoint(pull, work), axis=1, out=spectrum)
    np.fft.fft(spectrum, axis=0, out=p_hat)
    np.multiply(state.u_pull, p_hat, out=spectrum)
    np.subtract(state.u0_hat, spectrum, out=spectrum)
    np.fft.ifft(spectrum, axis=0, norm="forward", out=spectrum)
    return np.fft.irfft(spectrum, n=state.shape[1], axis=1, norm="forward", out=u), p_hat


@one_blas_thread()
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
    lam0: Array | None = None,
    state: RunState | None = None,
) -> InnerResult:
    """Run the splitting iteration from (u_k, v_k) and the scaled dual lam0.

    weights must hold the potential derivative at u_k on the active
    set; frozen pixels get a hard zero in the auxiliary variable, so
    their gradient is driven to zero by the penalty. Stops when the
    stacked (u, v) update is at most tol times the previous iterate's
    norm (the first sweep's update is its distance from (u_k, v_k)), or
    after admm.maxit_in sweeps. tol defaults to admm.tol_in, which is
    also its floor. A loose solve, asked for tol > admm.tol_in,
    also stops once the update is at most _RELATIVE_STOP times the
    iterate's distance from (u_k, v_k): a relative error in the form of
    condition H2 of Attouch, Bolte & Svaiter 2013, so a pass that moves
    far is solved coarsely and one that barely moves tightly. Every
    _MIX_EVERY-th sweep mixes the pull (see _Mixer), and a sweep that
    mixed never stops the solve.

    lam0, a (2, n, m) array, is copied and never written; None starts
    from zero duals. decompose passes the lam of the previous solve, since
    successive outer passes solve nearly the same problem. The result
    carries the final scaled dual as lam.

    state, the RunState of f, params, rho and admm.r, is built here when
    None; decompose passes one for its whole run. Raises ValueError for
    a state of another f, model, rho or r, for weights that are not all
    finite and nonnegative, and for a non-finite lam0. Runs on one BLAS
    thread (one_blas_thread): u and v do not depend on its thread count.
    """
    if state is None:
        state = RunState(f, params, rho, admm.r)
    elif (state.params, state.rho, state.r) != (params, rho, admm.r) or not np.array_equal(
        state.f, f
    ):
        raise ValueError("state was built for another f, model, rho or r")
    state.start(u_k, v_k)  # checks u_k and v_k
    shape = state.shape
    u_k = np.asarray(u_k, dtype=np.float64)
    v_k = np.asarray(v_k, dtype=np.float64)
    weights = _checked_weights(weights)
    if not (weights.shape == support.active.shape == shape):
        raise ValueError("admm_solve inputs must share one grid shape")
    if lam0 is not None and np.shape(lam0) != (2, *shape):
        raise ValueError(f"lam0 must have shape {(2, *shape)}, got {np.shape(lam0)}")

    loose = tol is not None and tol > admm.tol_in
    thresholds = _shrink_thresholds(weights, support.active, params.alpha, admm.r)
    # stacked (2, n, m) buffers: gradient of u, scratch, and the scaled
    # dual lam (holding the pull lam - q during the solve)
    du, work = np.empty((2, *shape)), np.empty((2, *shape))
    lam = np.zeros((2, *shape)) if lam0 is None else np.array(lam0, dtype=np.float64)
    if not np.isfinite(lam).all():
        raise ValueError("lam0 contains NaN or infinite entries")
    uv_out = _uv_buffers(shape)
    # step_weight * P of this sweep and the last, and the test's scratch
    scaled, prev, step = (np.empty_like(state.u0_hat) for _ in range(3))
    ids = np.flatnonzero(support.active)
    if ids.size < _GATHER_BELOW * u_k.size:
        # flat ids of the active pixels in both components of a field
        ids = np.stack([ids, ids + u_k.size])
        thresholds = thresholds.ravel()[ids[0]]
        q, lam_at, shrink_work = (np.empty(ids.shape) for _ in range(3))
    else:
        ids, q, shrink_work = None, np.empty((2, *shape)), work
    grad(u_k, out=du)
    tol = admm.tol_in if tol is None else max(tol, admm.tol_in)
    # bounds on the root norm of the last iterate and the root distance
    # of this one from (u_k, v_k), exact at the start
    root_size = math.sqrt(float(np.vdot(u_k, u_k)) + float(np.vdot(v_k, v_k)))
    root_move = 0.0
    mixer = _Mixer(shape)

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
        mixed = False
        if iters == 1:
            mixer.start(lam)
        elif iters % _MIX_EVERY == 1:
            mixed = mixer.end_block(lam, work)
        u, p_hat = solve_uv(state, lam, work, uv_out)
        grad(u, out=du)
        lam += du

        np.multiply(state.step_weight, p_hat, out=scaled)
        if iters == 1:  # the first update is the distance from (u_k, v_k)
            np.add(scaled, state.move_offset, out=step)
            change = state.move_floor + np.vdot(step, step).real
        else:
            np.subtract(scaled, prev, out=step)
            change = np.vdot(step, step).real
        root_change = math.sqrt(change)
        root_move += root_change  # exact on the first sweep
        # a mixed pull moves (u, v) by more than a sweep: never stop there
        if not mixed:
            if root_change <= tol * root_size * _BOUND_SLACK:
                if iters > 1:
                    np.add(prev, state.norm_offset, out=step)
                    root_size = math.sqrt(state.norm_floor + np.vdot(step, step).real)
                if root_change <= tol * root_size:
                    break
            if loose and root_change <= _RELATIVE_STOP * root_move * _BOUND_SLACK:
                if iters > 1:
                    np.add(scaled, state.move_offset, out=step)
                    root_move = math.sqrt(state.move_floor + np.vdot(step, step).real)
                if root_change <= _RELATIVE_STOP * root_move:
                    break
        root_size += root_change
        scaled, prev = prev, scaled

    v_hat = state.v_hat(p_hat)
    return InnerResult(u, np.fft.irfft2(v_hat, s=shape), iters, lam, v_hat)
