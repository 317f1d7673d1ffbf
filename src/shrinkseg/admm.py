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

reduced_solve solves the same problem exactly when the frozen ties
leave few connected components: u is then one value per component, v
is eliminated per frequency, and a small convex problem in the
component values is solved by damped Newton over classes of
components. Newton starts from every component alone, or from the
classes that FISTA on the problem's dual finds (_merges). Its result
is used only with an optimality certificate; otherwise it returns None
and the pass is left to admm_solve. It reads the same RunState, which
also keeps what the attempts of a run share, so that the reduced
quadratic is built once per run and summed from it after that. A build
transforms the indicators of the components of two or more pixels
only; the entries of single pixels are read from those rows and from
the kernel of the smoothing operator, one transform in all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import ModelParams
from .grid import Array, as_grid, compute_symbols, grad, grad_adjoint
from .support import SupportSet, hook

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
        if not (math.isfinite(self.r) and self.r > 0):
            raise ValueError(f"r must be positive, got {self.r!r}")
        if not (math.isfinite(self.tol_in) and self.tol_in >= 0):
            raise ValueError(f"tol_in must be nonnegative, got {self.tol_in!r}")
        if isinstance(self.maxit_in, bool) or not isinstance(self.maxit_in, (int, np.integer)):
            raise ValueError(f"maxit_in must be an integer, got {self.maxit_in!r}")
        if self.maxit_in < 1:
            raise ValueError(f"maxit_in must be at least 1, got {self.maxit_in!r}")


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

    reduced_solve reads f_hat, b and the smoothed f, and keeps the last
    support with its _Pieces (None when it left too many components), so
    a pass that keeps the support builds no new _Pieces.
    B^T S B is built (_smooth: one transform per component of two or
    more pixels, and the kernel of S for the single pixels) only at the
    first attempt that gets that far: supports only shrink, so every
    later partition coarsens the stored one (each old component lies in
    one new one) and the new matrix is M^T (B^T S B) M for the 0/1 merge
    matrix M, one bincount. A partition that does not coarsen it is
    built afresh.

    Two runs of one problem must not share a state: an aggregated matrix
    can differ from a fresh build in the last bits, so a run's result
    would depend on the runs before it.
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
        self.smooth_f = np.fft.irfft2(self.f_hat * (1.0 - 1.0 / self.b), s=self.shape)
        u_pull = r * (self.b * self.inv_det)
        self.v_pull = r * self.inv_det
        gain = np.hypot(u_pull, self.v_pull)
        self.cos, self.sin = self.v_pull / gain, u_pull / gain
        self.parseval = np.sqrt(symbols.weights)
        self.u_pull = (u_pull * (1.0 / self.f.size)).astype(np.complex128)
        self.step_weight = (self.parseval * gain).astype(np.complex128)
        # the last support with its _Pieces, and the _Pieces that quad_smooth is for
        self.support = self.pieces = self.quad_pieces = self.quad_smooth = None

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

    def pieces_of(self, support: SupportSet) -> _Pieces | None:
        """The _Pieces of support, built again only for another support."""
        if support is not self.support:
            self.support, self.pieces = support, _pieces(support)
        return self.pieces

    def smooth(self, pieces: _Pieces) -> Array:
        """B^T S B for pieces, aggregated from the stored one when it can be."""
        if pieces is self.quad_pieces:
            return self.quad_smooth
        old, label = self.quad_pieces, pieces.label
        if old is not None:
            merge = np.empty(old.sizes.size, dtype=np.intp)  # M as a map
            merge[old.label] = label
        if old is None or not np.array_equal(merge[old.label], label):
            smooth = _smooth(label, self.shape, self.params.gamma, self.params.beta)
        else:
            smooth = _coarsen(self.quad_smooth, merge, pieces.sizes.size)
            smooth = 0.5 * (smooth + smooth.T)
        self.quad_pieces, self.quad_smooth = pieces, smooth
        return smooth


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
    finite and nonnegative, and for a non-finite lam0.
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


# A pass whose support leaves at most this many tie components is
# solved in the components' values by reduced_solve; larger ones go to
# admm_solve. At seed 0 of the n=64 fixtures, passes on supports of
# 65-128 components ran 66-82 ADMM sweeps each (12-15 ms); the passes
# of 140 and 230 components ran 120 and stay with admm_solve.
_MAX_PIECES = 128
# Up to this many components, reduced_solve first runs _newton from
# every component in a class of its own, as it certifies most such
# attempts at once; above it, and after that first try declines, the
# dual iteration of _merges hands _newton its start classes. On the 12
# n=64 fixtures, every attempt through _merges took 1.16-1.18 times as
# long in all, and a split at 32, 96 or 128 took 1.005-1.026 times.
_NEWTON_FIRST = 64
# Budget of one Newton run: Newton steps in all, for a first try
# (_NEWTON_STEPS: the fixtures' certified first tries took at most 14
# at the acceptance settings and 29 at the CLI defaults) and for a run
# from the start classes of _merges (_MERGED_STEPS: one merge or step
# each, and a failed run costs them all); step halvings in one line
# search; and dual reweightings in the certificate. A Newton step that
# moves u by at most _NEWTON_TOL * ||u|| ends the iteration. Merging
# every crossed kink leaves certificates just above their bound at 4
# reweightings: with cold duals the fixture attempts that declined ended
# at largest dual ratios of 1.004 and 1.03, and at 8 the first of them
# certifies.
_NEWTON_STEPS = 30
_MERGED_STEPS = 12
_HALVINGS = 8
_DUAL_ROUNDS = 8
_NEWTON_TOL = 1e-10
# A certificate's duals must balance the live gradient to within this
# fraction of ||b||: the certified attempts of the 56 fixture runs and
# of suite64 seeds 1-12 leave at most 2.9e-11.
_BALANCE = 1e-8
# Components whose indicators _smooth transforms in one call: 8 cut a
# first build's time by a quarter on the n=64 fixtures.
_BATCH = 8
# OpenBLAS factors a matrix of this many rows or more on all its threads,
# and on a 2-core host such a call stalled for about 100 ms in 9 of 400
# solves at 100 rows; _solve stays below it.
_SOLVE_ROWS = 100
# _merges runs FISTA on the dual and hands out its start classes after
# each of these iteration counts; a term joins its components there
# once its dual is below (1 - _INTERIOR) of its bound. Of 73 attempts
# captured from fixture runs at offsets 0, 4, 11, 13, 39 and 303 (both
# settings) that were over 64 components or declined at a cap of 64,
# 13 certify at the first try, 47 from the first checkpoint, 12 from a
# later one, and one, whose certificate fails even at the exact
# minimizer's classes, from none. A first checkpoint at 15 iterations
# certified fewer there and cost more Newton runs than it saved.
_CHECKPOINTS = (30, 60, 120, 240)
_INTERIOR = 0.1
# Power iterations for the Lipschitz constant of the dual gradient, and
# the margin the FISTA step keeps below its inverse.
_POWER_STEPS = 10
_POWER_MARGIN = 1.1


@dataclass(frozen=True)
class _Pieces:
    """Tie components of one support and the terms that join them.

    u = c[label] for the C component values c. Each term joins the
    active pixels whose own, right and lower pixels lie in one triple of
    components, listed in triples; term_of gives the term of each active
    pixel in term_pixels. Active pixels whose three components coincide
    carry no jump and belong to no term.
    """

    label: Array
    sizes: Array
    triples: Array
    term_pixels: Array
    term_of: Array


def _pieces(support: SupportSet) -> _Pieces | None:
    """The _Pieces of support, or None when it leaves more than
    _MAX_PIECES components."""
    active, roots = support.active, support.labels
    m = active.shape[1]
    heads = roots == np.arange(roots.size)
    count = np.count_nonzero(heads)
    if count > _MAX_PIECES:
        return None
    label = (np.cumsum(heads) - 1)[roots]  # the roots numbered 0, 1, ... in order

    pixels = np.flatnonzero(active)
    row, col = np.divmod(pixels, m)
    own, right = label[pixels], label[row * m + (col + 1) % m]
    lower = label[(pixels + m) % label.size]
    jumps = (right != own) | (lower != own)
    keys = (own[jumps] * count + right[jumps]) * count + lower[jumps]
    keys, term_of = np.unique(keys, return_inverse=True)
    return _Pieces(
        label=label,
        sizes=np.bincount(label, minlength=count).astype(np.float64),
        triples=np.stack([keys // (count * count), keys // count % count, keys % count], axis=1),
        term_pixels=pixels[jumps],
        term_of=term_of,
    )


def _smooth(label: Array, shape: tuple[int, int], gamma: float, beta: float) -> Array:
    """B^T S B for the tie labels label: B maps the component values to
    pixels, S is the convolution of symbol
    (gamma + beta hth) / (1 + gamma + beta hth).

    The row of a component of two or more pixels sums S applied to its
    indicator. Those indicators are transformed _BATCH at a time (each
    gets the same bits as in a call of its own): one stack of all of
    them and their spectra would raise the peak memory by more than it
    saves. A single pixel needs no transform of its own. S is symmetric,
    so its entries against the larger components are theirs against it,
    and its entry against a single pixel is the kernel
    s = irfft2(symbol) at the periodic offset of the two pixels.
    """
    count = label.max() + 1
    ridge = gamma + beta * compute_symbols(shape).hth
    symbol = ridge / (1.0 + ridge)
    grid = label.reshape(shape)
    sizes = np.bincount(label, minlength=count)
    multi, single = np.flatnonzero(sizes > 1), np.flatnonzero(sizes == 1)
    smooth = np.empty((count, count))
    for start in range(0, multi.size, _BATCH):
        pieces = multi[start : start + _BATCH]
        spread = np.fft.irfft2(np.fft.rfft2(grid == pieces[:, None, None]) * symbol, s=shape)
        for piece, row in zip(pieces, spread):
            smooth[piece] = np.bincount(label, row.ravel(), count)
    if single.size:
        smooth[np.ix_(single, multi)] = smooth[np.ix_(multi, single)].T
        pixel = np.empty(count, dtype=np.intp)
        pixel[label] = np.arange(label.size)  # the one pixel of each single
        row, col = np.divmod(pixel[single], shape[1])
        kernel = np.fft.irfft2(symbol, s=shape)
        smooth[np.ix_(single, single)] = kernel[
            (row[:, None] - row) % shape[0], (col[:, None] - col) % shape[1]
        ]
    return 0.5 * (smooth + smooth.T)


def _coarsen(matrix: Array, cls: Array, size: int) -> Array:
    """M^T matrix M for the 0/1 matrix M that sends each index to its
    class in cls (size classes), summed by one bincount."""
    pairs = (cls[:, None] * size + cls).ravel()
    return np.bincount(pairs, matrix.ravel(), size * size).reshape(size, size)


def _solve(matrix: Array, b: Array) -> Array:
    """matrix^-1 b for a symmetric positive definite matrix and a vector
    or matrix b, on one BLAS thread: at _SOLVE_ROWS rows or more, by
    block elimination of its leading half, whose Schur complement is
    positive definite too."""
    n = matrix.shape[0]
    if n < _SOLVE_ROWS:
        return np.linalg.solve(matrix, b)
    h = n // 2
    width = matrix.shape[1] - h
    lead = np.linalg.solve(matrix[:h, :h], np.hstack([matrix[:h, h:], b[:h].reshape(h, -1)]))
    across, rest = lead[:, :width], lead[:, width:].reshape(b[:h].shape)
    tail = _solve(matrix[h:, h:] - matrix[h:, :h] @ across, b[h:] - matrix[h:, :h] @ rest)
    return np.concatenate([rest - across @ tail, tail])


def _jumps(triples: Array, c: Array) -> Array:
    """(T, 2) jump pairs E_t c = (c[right] - c[own], c[lower] - c[own])."""
    return c[triples[:, 1:]] - c[triples[:, :1]]


# Rows and columns, within (own, right, lower), of the nine entries of
# E_t^T M E_t for a symmetric 2 x 2 matrix M, and those of E_t^T E_t
_BLOCK_ROWS, _BLOCK_COLS = np.divmod(np.arange(9), 3)
_GRAM = np.array([2.0, -1.0, -1.0, -1.0, 1.0, 0.0, -1.0, 0.0, 1.0])
# x @ _PERP = E_t^T x^perp for a jump pair x, x^perp = (x_1, -x_0)
_PERP = np.array([[1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])


def _merge(cls: Array, triples: Array, terms: Array) -> Array:
    """Classes of the components once each listed term's components are
    joined, numbered from 0 in the order of their smallest component.

    hook joins each term's own class to its right and lower ones, and
    roots each set at its smallest class, so the order of the roots is
    that of the smallest components.
    """
    ends = cls[triples[terms]]
    roots = hook(np.arange(cls.max() + 1), np.repeat(ends[:, 0], 2), ends[:, 1:].ravel())
    heads = roots == np.arange(roots.size)
    return (np.cumsum(heads) - 1)[roots][cls]


def _penalty_grad(triples: Array, w: Array, x: Array, norms: Array, count: int) -> Array:
    """Gradient of sum_t w_t ||E_t c|| at jumps x (every norm positive)."""
    y = x * (w / norms)[:, None]
    return (
        np.bincount(triples[:, 1], y[:, 0], count)
        + np.bincount(triples[:, 2], y[:, 1], count)
        - np.bincount(triples[:, 0], y[:, 0] + y[:, 1], count)
    )


def _certify(quad, linear, triples, w, cls, live, c, step):
    """c if it minimizes phi (see _newton), else None.

    The last Newton step must cross no live jump's kink, every live jump
    must be nonzero, and the merged terms must hold dual vectors y_t
    with ||y_t|| <= w_t that balance g = grad phi_live(c):
    ||g + sum_t E_t^T y_t|| <= _BALANCE * ||b||. Since Q >= rho
    diag(sizes), c is then within that residual over rho * sizes.min()
    of the exact minimizer. Among the duals, weighted least squares
    picks one; Lawson's reweighting (toward the least largest ratio
    ||y_t|| / w_t) gets _DUAL_ROUNDS tries.

    The least squares, sum_t ||y_t||^2 / a_t least with a_t = w_t^2 /
    scale_t, is solved through the C x C weighted Laplacian L = sum_t
    a_t E_t^T E_t of the merged terms, summed by bincount: y_t = a_t E_t z
    with L z = -g in least squares. L is zero outside the classes the
    merged terms join, so the solve runs on their components only. There
    L vanishes exactly on the functions constant on each class cls, so
    the least squares solve L z = -g less its mean over each class, which
    L reaches; a weight a.mean() on one component of each class (its
    anchor) makes L invertible, and as the right side sums to zero over
    each class, the anchors hold z = 0 and leave that y as it is. A
    dense least squares of the (C, 2T) map stalled under BLAS threads on
    a 2-core host; the solve stays on one thread through _solve.
    """
    moved = _jumps(triples[live], step)
    x = _jumps(triples, c)
    norms = np.hypot(x[:, 0], x[:, 1])
    if not np.all(np.hypot(moved[:, 0], moved[:, 1]) < norms[live]):
        return None
    dead = ~live
    if not dead.any():
        return c
    count = c.size
    g = np.einsum("ij,j->i", quad, c) - linear + _penalty_grad(
        triples[live], w[live], x[live], norms[live], count
    )
    merged, w_dead = triples[dead], w[dead]
    inside = np.flatnonzero(np.bincount(merged.ravel(), minlength=count))
    local = np.empty(count, dtype=np.intp)
    local[inside] = np.arange(inside.size)
    ends, size = local[merged], inside.size
    entries = (ends[:, _BLOCK_ROWS] * size + ends[:, _BLOCK_COLS]).ravel()
    _, first, group = np.unique(cls[inside], return_index=True, return_inverse=True)
    rhs = -g[inside]
    rhs -= (np.bincount(group, rhs) / np.bincount(group))[group]  # L's range
    scale = np.ones(w_dead.size)
    for _ in range(_DUAL_ROUNDS):
        a = w_dead**2 / scale
        lap = np.bincount(entries, np.outer(a, _GRAM).ravel(), size * size)
        lap[first * (size + 1)] += a.mean()  # one anchor per class
        try:
            z = _solve(lap.reshape(size, size), rhs)
        except np.linalg.LinAlgError:  # reweighted past float64's range
            return None
        y = a[:, None] * _jumps(ends, z)
        ratio = np.hypot(y[:, 0], y[:, 1]) / w_dead
        if ratio.max() <= 1.0:
            ones = np.ones(w_dead.size)
            residual = g + _penalty_grad(merged, ones, y, ones, count)
            balanced = np.linalg.norm(residual) <= _BALANCE * np.linalg.norm(linear)
            return c if balanced else None
        scale *= np.maximum(ratio, 1e-12)
    return None


def _kink_tries(reach, kinks):
    """Where a Newton step merges, and which terms it tries to merge there.

    reach is each term's step fraction at its kink, and kinks marks the
    terms whose kinks the step passes through. Returns the (t, terms)
    pairs to try in turn, each a step fraction and a term mask: every
    kink at the first kink's fraction, then, when that does not lower phi,
    the first half of the kinks in the order the step reaches them (at
    the fraction of the last of them), then the first quarter, and so on
    down to the first ones (those within rounding of the first fraction).
    Merging every kink at once saves the steps of merging them one by
    one. The fallbacks are needed where merging every kink raises phi at
    each step: without them, such an attempt falls to the line search at
    every step and runs out of steps, and with the first kinks alone it
    merges one kink per step. Without the halved prefixes the n=64
    fixtures took 1.02-1.04 times as long in all.
    """
    ordered = np.sort(reach[kinks])
    t = ordered[0]
    first = kinks & (reach <= t * (1 + 1e-9))
    tries = [(t, kinks)]
    count = ordered.size // 2
    while count > np.count_nonzero(first):
        tries.append((ordered[count - 1], kinks & (reach <= ordered[count - 1] * (1 + 1e-9))))
        count //= 2
    if np.count_nonzero(first) < ordered.size:
        tries.append((t, first))
    return tries


def _newton(quad, linear, triples, w, sizes, total, c, cls, steps):
    """Damped Newton on phi(c) = 1/2 c'Qc - b'c + sum_t w_t ||E_t c||.

    The iterate is one value per class of the components, from the
    classes cls (numbered from 0 in the order of their smallest
    component) and the class means of c. Along a constant shift of c,
    phi is a parabola of curvature only (gamma / (1 + gamma) + rho) *
    sizes.sum(), which a Newton solve resolves poorly; its minimum is
    where sizes @ c equals total. So the Newton system stiffens that
    direction, and the start and every step are shifted there exactly. A
    term whose jump reaches zero has its classes merged, and Newton
    continues over the coarser classes: at an iterate, or at the kinks a
    Newton step crosses. There, merging every kink the full step crosses
    is tried first, and fewer of the first kinks when that does not lower
    phi (see _kink_tries). Returns the minimizer when _certify accepts
    it, or None once the budget of steps Newton steps runs out. Q and b are summed
    over the classes at each merge, from their last sums, and the
    Hessian's penalty part at each step, by bincount from each live
    term's 3 x 3 block over its classes.
    """
    n_pix = sizes.sum()

    def merge(joined, values):
        """Join the classes as joined numbers them (as _merge does), at
        the values of the new classes; Q, b, the class sizes and the live
        terms (those whose classes differ) are summed from the last ones."""
        nonlocal cls, size, v, class_sizes, qc, bc, stiff, kept, ends, lw, entries
        if joined.max() + 1 < size:
            cls, size = joined[cls], joined.max() + 1
            qc = _coarsen(qc, joined, size)
            bc = np.bincount(joined, bc, size)
            class_sizes = np.bincount(joined, class_sizes, size)
            ends = joined[ends]
            keep = (ends[:, 0] != ends[:, 1]) | (ends[:, 0] != ends[:, 2])
            kept, ends, lw = kept[keep], ends[keep], lw[keep]
        v = values + (total - class_sizes @ values) / n_pix
        stiff = np.outer(class_sizes, class_sizes) / n_pix
        entries = (ends[:, _BLOCK_ROWS] * size + ends[:, _BLOCK_COLS]).ravel()

    def change(x, norms, gs, delta, moved=None):
        """phi(c + delta) - phi(c) without cancelling large terms; moved,
        when given, is _jumps(ends, delta)."""
        x_new = x + (_jumps(ends, delta) if moved is None else moved)
        penalty = lw @ (np.hypot(x_new[:, 0], x_new[:, 1]) - norms)
        return gs @ delta + 0.5 * delta @ np.einsum("ij,j->i", qc, delta) + penalty

    def coarser(joined, values):
        """The size-weighted means of values over the classes joined."""
        return np.bincount(joined, class_sizes * values) / np.bincount(joined, class_sizes)

    # every component a class of its own, then the start classes
    start, cls, size, class_sizes, qc, bc = cls, np.arange(c.size), c.size, sizes, quad, linear
    kept, ends, lw = np.arange(w.size), triples, w  # the live terms
    v = stiff = entries = None  # set by merge
    merge(start, np.bincount(start, sizes * c) / np.bincount(start, sizes))
    for _ in range(steps):
        x = _jumps(ends, v)
        norms = np.hypot(x[:, 0], x[:, 1])
        flat = norms == 0
        if flat.any():
            joined = _merge(np.arange(size), ends, np.flatnonzero(flat))
            merge(joined, coarser(joined, v))
            continue
        gs = np.einsum("ij,j->i", qc, v) - bc
        g = gs + _penalty_grad(ends, lw, x, norms, size)
        # E_t^T M_t E_t with M_t = w_t / |x_t| (I - x_t x_t' / |x_t|^2)
        # = r r' for r = E_t^T x_t^perp sqrt(w_t) / |x_t|^1.5, rows and
        # columns in (own, right, lower) order
        r = np.einsum("tk,kj->tj", x * (np.sqrt(lw / norms) / norms)[:, None], _PERP)
        block = r[:, :, None] * r[:, None, :]
        # the outer product of the class sizes only stiffens the shift
        hess = qc + np.bincount(entries, block.ravel(), size * size).reshape(size, size) + stiff
        step = _solve(hess, -g)
        if math.sqrt(class_sizes @ step**2) <= _NEWTON_TOL * math.sqrt(class_sizes @ v**2):
            live = np.zeros(w.size, dtype=bool)
            live[kept] = True
            return _certify(quad, linear, triples, w, cls, live, (v + step)[cls], step[cls])
        d = _jumps(ends, step)
        dd = np.einsum("tk,tk->t", d, d)
        t = 1.0
        # a jump the step moves by at most 0.9 of its norm stays at least
        # 0.1 of it away from zero: no kink within the step
        if not np.all(dd <= 0.81 * norms**2):
            # the kinks the full step passes through (or close by)
            reach = -np.einsum("tk,tk->t", x, d) / np.maximum(dd, _TINY)
            gap = np.hypot(*(x + reach[:, None] * d).T)
            kinks = (reach > 0) & (reach < 1) & (gap <= 1e-2 * norms)
            if kinks.any():
                for t, terms in _kink_tries(reach, kinks):
                    joined = _merge(np.arange(size), ends, np.flatnonzero(terms))
                    means = coarser(joined, v + t * step)
                    if change(x, norms, gs, means[joined] - v) < 0:
                        merge(joined, means)
                        break
                else:
                    joined = None
                if joined is not None:
                    continue
        slope = g @ step
        for _ in range(_HALVINGS):
            if change(x, norms, gs, t * step, t * d) <= 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            return None
        v = v + t * step
        v += (total - class_sizes @ v) / n_pix
    return None


def _merges(quad, linear, triples, w, sizes, total, c):
    """Start classes and values for _newton, from the dual of phi.

    phi's minimizer is c(y) = Q~^-1 (b~ - sum_t E_t^T y_t) at the duals y
    that minimize 1/2 (b~ - E^T y)' Q~^-1 (b~ - E^T y) over the balls
    ||y_t|| <= w_t (Chambolle's dual projection, J. Math. Imaging Vis.
    20, 2004), where Q~ and b~ add the shift stiffening of _newton, which
    leaves the minimizer as it is. FISTA (Beck & Teboulle, SIAM J.
    Imaging Sci. 2(1), 2009) runs on these duals from y_t = w_t E_t c /
    ||E_t c|| at the start c, with a step below the inverse of the
    Lipschitz constant that _POWER_STEPS power iterations estimate. A
    dual strictly inside its ball means a zero jump at the minimizer, so
    after each of _CHECKPOINTS iterations this yields the classes that
    join the terms whose duals are below (1 - _INTERIOR) times their
    bound, with c(y). The choice needs no merge decisions, and _newton
    adds the zero jumps it missed. Q~ is inverted once, by _solve.
    """
    count, n_pix = sizes.size, sizes.sum()
    inverse = _solve(quad + np.outer(sizes, sizes) / n_pix, np.eye(count))
    linear = linear + sizes * (total / n_pix)
    owns, ends = triples[:, 0], triples[:, 1:].T  # E_t c = c[ends] - c[owns]
    flat_ends, both = ends.ravel(), np.concatenate([owns, owns])

    def spread(y):
        """sum_t E_t^T y_t for the (2, T) duals y."""
        return np.bincount(flat_ends, y.ravel(), count) - np.bincount(both, y.ravel(), count)

    def jumps(c):
        return c[ends] - c[owns]

    x = jumps(c - c.mean())
    if not x.any():  # a flat start: any other start will do
        x = np.ones_like(x)
    for _ in range(_POWER_STEPS):
        x = jumps(np.einsum("ij,j->i", inverse, spread(x)) / math.sqrt(np.vdot(x, x)))
    step = 1.0 / (_POWER_MARGIN * math.sqrt(np.vdot(x, x)))
    x = jumps(c)
    y = x * (w / np.maximum(np.hypot(x[0], x[1]), _TINY))
    ahead, t = y, 1.0
    for k in range(1, _CHECKPOINTS[-1] + 1):
        nxt = ahead + step * jumps(np.einsum("ij,j->i", inverse, linear - spread(ahead)))
        nxt *= w / np.maximum(np.hypot(nxt[0], nxt[1]), w)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        ahead = nxt + ((t - 1.0) / t_next) * (nxt - y)
        y, t = nxt, t_next
        if k in _CHECKPOINTS:
            inside = np.hypot(y[0], y[1]) < (1.0 - _INTERIOR) * w
            start = np.einsum("ij,j->i", inverse, linear - spread(y))
            yield _merge(np.arange(count), triples, np.flatnonzero(inside)), start


def reduced_solve(
    u_k: Array, weights: Array, support: SupportSet, state: RunState
) -> InnerResult | None:
    """Solve admm_solve's problem exactly in the tie components' values.

    state holds the run's f, model and rho (see RunState): pass the same
    one for every pass of a run. When the frozen ties of support leave at
    most _MAX_PIECES components, every feasible u is c[label] for C
    component values c, and v = K(f - u) with K = 1 / (1 + gamma + beta
    hth) per frequency, so the pass problem becomes
        phi(c) = 1/2 c'Qc - b'c + alpha sum_t W_t ||E_t c||,
    Q = B'SB + rho diag(sizes), S = 1 - K, b = B'Sf + rho B'u_k, where
    term t sums the weights W of the active pixels that share one (own,
    right, lower) component triple and E_t c is that triple's pair of
    jumps. phi is convex. Up to _NEWTON_FIRST components, _newton
    minimizes it from the component means of u_k, each component a
    class of its own; above that, or when that first try declines, from
    the start classes and points of _merges, until one certifies. The
    result is returned, as an InnerResult with iters = 0, only with its
    optimality certificate, so it is the exact pass minimizer: u is
    constant on the components and needs no projection. Returns None
    when the support leaves more than _MAX_PIECES components or no
    start certifies within its budget; the pass is then for admm_solve.
    """
    u_k = as_grid(u_k, "u_k")
    weights = _checked_weights(weights)
    shape, params, rho = state.shape, state.params, state.rho
    if not (u_k.shape == weights.shape == support.active.shape == shape):
        raise ValueError("reduced_solve inputs must share one grid shape")
    pieces = state.pieces_of(support)
    if pieces is None:
        return None
    label, sizes = pieces.label, pieces.sizes
    count = sizes.size
    u_sums = np.bincount(label, u_k.ravel(), count)
    linear = np.bincount(label, state.smooth_f.ravel(), count) + rho * u_sums
    quad = state.smooth(pieces) + rho * np.diag(sizes)
    w = params.alpha * np.bincount(
        pieces.term_of, weights.ravel()[pieces.term_pixels], pieces.triples.shape[0]
    )
    # the sum of the minimizer's u, from the zero frequency alone
    s0 = params.gamma / (1.0 + params.gamma)
    total = (s0 * state.f.sum() + rho * u_k.sum()) / (s0 + rho)
    problem = (quad, linear, pieces.triples, w, sizes, total)
    c = None
    if count <= _NEWTON_FIRST:
        c = _newton(*problem, u_sums / sizes, np.arange(count), _NEWTON_STEPS)
    if c is None:
        for cls, start in _merges(*problem, u_sums / sizes):
            c = _newton(*problem, start, cls, _MERGED_STEPS)
            if c is not None:
                break
    if c is None:
        return None
    u = c[label].reshape(shape)
    v_hat = (state.f_hat - np.fft.rfft2(u)) / state.b
    return InnerResult(u, np.fft.irfft2(v_hat, s=shape), 0, v_hat=v_hat)
