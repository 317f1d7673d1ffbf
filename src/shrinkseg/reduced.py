"""Exact solve of an outer pass in the values of its tie components.

reduced_solve solves admm_solve's pass problem exactly when the frozen
ties leave few connected components: u is then one value per component,
v is eliminated per frequency, and a small convex problem in the
component values (a _Problem) is solved by damped Newton over classes of
components. Newton starts from every component alone, or from the
classes that FISTA on the problem's dual finds (_merges). Its result is
used only with an optimality certificate (_certify); otherwise it
returns None and the pass is left to admm_solve. A run's attempts share
one ReducedCache, the run's RunState, which builds the reduced quadratic
once per run and sums each later one from it (see ReducedCache and
_smooth), and counts the attempts that certify and those that decline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .admm import _TINY, InnerResult, RunState, _checked_weights, one_blas_thread
from .energy import ModelParams
from .grid import Array, as_grid, compute_symbols
from .support import SupportSet, join, neighbors

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
# Budget of one Newton run, from either start: Newton steps in all (the
# fixtures' certified first tries took at most 14 at the acceptance
# settings and 29 at the CLI defaults); step halvings in one line
# search; and dual reweightings in the certificate. A Newton step that
# moves u by at most _NEWTON_TOL * ||u|| ends the iteration. Merging
# every crossed kink leaves certificates just above their bound at 4
# reweightings: with cold duals the fixture attempts that declined ended
# at largest dual ratios of 1.004 and 1.03, and at 8 the first of them
# certifies.
_NEWTON_STEPS = 30
_HALVINGS = 8
_DUAL_ROUNDS = 8
_NEWTON_TOL = 1e-10
# A certificate's duals must balance the live gradient to within this
# fraction of ||b||: the certified attempts of the 56 fixture runs and
# of suite64 seeds 1-12 leave at most 2.9e-11.
_BALANCE = 1e-8
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
    heads = roots == np.arange(roots.size)
    count = np.count_nonzero(heads)
    if count > _MAX_PIECES:
        return None
    label = (np.cumsum(heads) - 1)[roots]  # the roots numbered 0, 1, ... in order

    pixels = np.flatnonzero(active)
    own, right, lower = label[np.stack([pixels, *neighbors(pixels, active.shape)])]
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
    indicator, one rfft2 and one irfft2 per component. A single pixel
    needs no transform of its own. S is symmetric, so its entries against
    the larger components are theirs against it, and its entry against a
    single pixel is the kernel s = irfft2(symbol) at the periodic offset
    of the two pixels.
    """
    count = label.max() + 1
    ridge = gamma + beta * compute_symbols(shape).hth
    symbol = ridge / (1.0 + ridge)
    grid = label.reshape(shape)
    sizes = np.bincount(label, minlength=count)
    multi, single = np.flatnonzero(sizes > 1), np.flatnonzero(sizes == 1)
    smooth = np.empty((count, count))
    for piece in multi:
        spread = np.fft.irfft2(np.fft.rfft2(grid == piece) * symbol, s=shape)
        smooth[piece] = np.bincount(label, spread.ravel(), count)
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


class ReducedCache(RunState):
    """The RunState of one decompose run, with what its reduced attempts share.

    It holds the smoothed f = irfft2(f_hat (1 - 1 / b)), and keeps the
    last support with its _Pieces (None when it left too many
    components), so a pass that keeps the support builds no new _Pieces.
    B^T S B is built (_smooth: one transform per component of two or
    more pixels, and the kernel of S for the single pixels) only at the
    first attempt that gets that far: supports only shrink, so every
    later partition coarsens the stored one (each old component lies in
    one new one) and the new matrix is M^T (B^T S B) M for the 0/1 merge
    matrix M, one bincount. A partition that does not coarsen it is
    built afresh. solves counts the attempts that certified, declines
    those within _MAX_PIECES that returned None.

    Two runs of one problem must not share a cache: an aggregated matrix
    can differ from a fresh build in the last bits, so a run's result
    would depend on the runs before it.
    """

    def __init__(self, f: Array, params: ModelParams, rho: float, r: float):
        super().__init__(f, params, rho, r)
        self.smooth_f = np.fft.irfft2(self.f_hat * (1.0 - 1.0 / self.b), s=self.shape)
        # the last support with its _Pieces, and the _Pieces that quad_smooth is for
        self.support = self.pieces = self.quad_pieces = self.quad_smooth = None
        self.solves = self.declines = 0

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


def _jumps(triples: Array, c: Array) -> Array:
    """(T, 2) jump pairs E_t c = (c[right] - c[own], c[lower] - c[own])."""
    return c[triples[:, 1:]] - c[triples[:, :1]]


def _adjoint(triples: Array, y: Array, count: int) -> Array:
    """sum_t E_t^T y_t over count components, for the (T, 2) duals y."""
    return (
        np.bincount(triples[:, 1], y[:, 0], count)
        + np.bincount(triples[:, 2], y[:, 1], count)
        - np.bincount(triples[:, 0], y[:, 0] + y[:, 1], count)
    )


# Rows and columns, within (own, right, lower), of the nine entries of
# E_t^T M E_t for a symmetric 2 x 2 matrix M, and those of E_t^T E_t
_BLOCK_ROWS, _BLOCK_COLS = np.divmod(np.arange(9), 3)
_GRAM = np.array([2.0, -1.0, -1.0, -1.0, 1.0, 0.0, -1.0, 0.0, 1.0])
# x @ _PERP = E_t^T x^perp for a jump pair x, x^perp = (x_1, -x_0)
_PERP = np.array([[1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])


def _merge(size: int, triples: Array, terms: Array) -> Array:
    """Classes of size components once each masked term's components are
    joined, numbered from 0 in the order of their smallest component.

    join hooks each term's own component to its right and lower ones, and
    roots each set at its smallest, so the roots come in that order.
    """
    roots = join(np.arange(size), *triples[terms].T)
    heads = roots == np.arange(size)
    return (np.cumsum(heads) - 1)[roots]


@dataclass(frozen=True, eq=False)
class _Problem:
    """phi(c) = 1/2 c'Qc - b'c + sum_t w_t ||E_t c|| over C values c.

    Q is quad and b linear; term t has weight w[t] and the components
    triples[t] (see _Pieces), sizes holds the components' pixel counts,
    and total is sizes @ c at the minimizer. Along a constant shift of c,
    phi is a parabola of curvature only (gamma / (1 + gamma) + rho) *
    sizes.sum(), which a Newton solve resolves poorly, and its minimum is
    where sizes @ c equals total. So stiffening, the outer product of the
    sizes over sizes.sum(), is added to Q in every solve, and shift moves
    a point to that minimum exactly; neither changes the minimizer.
    """

    quad: Array
    linear: Array
    triples: Array
    w: Array
    sizes: Array
    total: float

    @cached_property
    def stiffening(self) -> Array:
        return np.outer(self.sizes, self.sizes) / self.sizes.sum()

    @cached_property
    def entries(self) -> Array:
        """Flat ids, in a C x C matrix, of each term's 3 x 3 block."""
        size = self.sizes.size
        return (self.triples[:, _BLOCK_ROWS] * size + self.triples[:, _BLOCK_COLS]).ravel()

    def live(self, cls: Array) -> Array:
        """Mask of the terms whose components lie in two or more classes cls."""
        ends = cls[self.triples]
        return (ends[:, 0] != ends[:, 1]) | (ends[:, 0] != ends[:, 2])

    def coarsen(self, joined: Array) -> _Problem:
        """The problem in one value per class of joined (numbered as
        _merge numbers them): Q, b and the sizes summed over the classes,
        and only the terms that still join two classes kept. self when
        joined leaves every component a class of its own."""
        size = joined.max() + 1
        if size == self.sizes.size:
            return self
        live = self.live(joined)
        return _Problem(
            _coarsen(self.quad, joined, size),
            np.bincount(joined, self.linear, size),
            joined[self.triples[live]],
            self.w[live],
            np.bincount(joined, self.sizes, size),
            self.total,
        )

    def means(self, joined: Array, values: Array) -> Array:
        """The size-weighted means of values over the classes joined."""
        return np.bincount(joined, self.sizes * values) / np.bincount(joined, self.sizes)

    def shift(self, values: Array) -> Array:
        """values shifted by a constant to where sizes @ values = total."""
        return values + (self.total - self.sizes @ values) / self.sizes.sum()

    def change(self, x: Array, norms: Array, gs: Array, delta: Array, moved=None) -> float:
        """phi(c + delta) - phi(c) without cancelling large terms, for
        the jumps x of c, their norms and gs = Qc - b; moved, when given,
        is _jumps(triples, delta)."""
        x_new = x + (_jumps(self.triples, delta) if moved is None else moved)
        penalty = self.w @ (np.hypot(x_new[:, 0], x_new[:, 1]) - norms)
        return gs @ delta + 0.5 * delta @ (self.quad @ delta) + penalty


def _certify(problem: _Problem, cls: Array, c: Array, step: Array) -> Array | None:
    """c if it minimizes problem's phi, else None; the terms that cls
    leaves within one class are the merged ones, the others live.

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
    each class, the anchors hold z = 0 and leave that y as it is.
    """
    triples, w, live = problem.triples, problem.w, problem.live(cls)
    moved = _jumps(triples[live], step)
    x = _jumps(triples, c)
    norms = np.hypot(x[:, 0], x[:, 1])
    if not np.all(np.hypot(moved[:, 0], moved[:, 1]) < norms[live]):
        return None
    dead = ~live
    if not dead.any():
        return c
    count = c.size
    g = problem.quad @ c - problem.linear + _adjoint(
        triples[live], x[live] * (w[live] / norms[live])[:, None], count
    )
    merged, w_dead = triples[dead], w[dead]
    inside, ends = np.unique(merged, return_inverse=True)  # ends: merged's local indices
    size = inside.size
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
            z = np.linalg.solve(lap.reshape(size, size), rhs)
        except np.linalg.LinAlgError:  # reweighted past float64's range
            return None
        y = a[:, None] * _jumps(ends, z)
        ratio = np.hypot(y[:, 0], y[:, 1]) / w_dead
        if ratio.max() <= 1.0:
            residual = g + _adjoint(merged, y, count)
            balanced = np.linalg.norm(residual) <= _BALANCE * np.linalg.norm(problem.linear)
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


def _newton(problem: _Problem, c: Array, cls: Array) -> Array | None:
    """Damped Newton on problem's phi.

    The iterate is one value per class of the components, from the
    classes cls (numbered from 0 in the order of their smallest
    component) and the class means of c, over the problem coarsened to
    those classes. The Newton system adds its stiffening, and the start
    and every step are shifted (see _Problem). A term whose jump reaches
    zero has its classes merged, and Newton continues over the coarser
    classes: at an iterate, or at the kinks a Newton step crosses. There,
    merging every kink the full step crosses is tried first, and fewer of
    the first kinks when that does not lower phi (see _kink_tries); when
    no merge lowers phi, the line search starts at the first kink.
    Returns the minimizer when _certify accepts it, or None once its
    _NEWTON_STEPS Newton steps run out. Q and b are summed over the
    classes at each merge, from their last sums, and the Hessian's
    penalty part at each step, by bincount from each live term's 3 x 3
    block over its classes.
    """
    sub = problem.coarsen(cls)
    v = sub.shift(problem.means(cls, c))
    for _ in range(_NEWTON_STEPS):
        size = v.size
        x = _jumps(sub.triples, v)
        norms = np.hypot(x[:, 0], x[:, 1])
        flat = norms == 0
        if flat.any():
            joined = _merge(size, sub.triples, flat)
            means = sub.means(joined, v)
            sub = sub.coarsen(joined)
            cls, v = joined[cls], sub.shift(means)
            continue
        gs = sub.quad @ v - sub.linear
        g = gs + _adjoint(sub.triples, x * (sub.w / norms)[:, None], size)
        # E_t^T M_t E_t with M_t = w_t / |x_t| (I - x_t x_t' / |x_t|^2)
        # = r r' for r = E_t^T x_t^perp sqrt(w_t) / |x_t|^1.5, rows and
        # columns in (own, right, lower) order
        r = np.einsum("tk,kj->tj", x * (np.sqrt(sub.w / norms) / norms)[:, None], _PERP)
        block = (r[:, :, None] * r[:, None, :]).ravel()
        hess = sub.quad + np.bincount(sub.entries, block, size * size).reshape(size, size)
        step = np.linalg.solve(hess + sub.stiffening, -g)  # the stiffening holds the shift
        if math.sqrt(sub.sizes @ step**2) <= _NEWTON_TOL * math.sqrt(sub.sizes @ v**2):
            return _certify(problem, cls, (v + step)[cls], step[cls])
        d = _jumps(sub.triples, step)
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
                t = reach[kinks].min()
                for at, terms in _kink_tries(reach, kinks):
                    joined = _merge(size, sub.triples, terms)
                    means = sub.means(joined, v + at * step)
                    if sub.change(x, norms, gs, means[joined] - v) < 0:
                        sub = sub.coarsen(joined)
                        cls, v = joined[cls], sub.shift(means)
                        break
                else:
                    joined = None
                if joined is not None:
                    continue
        slope = g @ step
        for _ in range(_HALVINGS):
            if sub.change(x, norms, gs, t * step, t * d) <= 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            return None
        v = sub.shift(v + t * step)
    return None


def _merges(problem: _Problem, c: Array):
    """Start classes and values for _newton, from the dual of phi.

    phi's minimizer is c(y) = Q~^-1 (b~ - sum_t E_t^T y_t) at the duals y
    that minimize 1/2 (b~ - E^T y)' Q~^-1 (b~ - E^T y) over the balls
    ||y_t|| <= w_t (Chambolle's dual projection, J. Math. Imaging Vis.
    20, 2004), where Q~ and b~ add the problem's stiffening and its
    shift, which leave the minimizer as it is. FISTA (Beck & Teboulle,
    SIAM J. Imaging Sci. 2(1), 2009) runs on these duals from y_t = w_t
    E_t c / ||E_t c|| at the start c, with a step below the inverse of
    the Lipschitz constant that _POWER_STEPS power iterations estimate. A
    dual strictly inside its ball means a zero jump at the minimizer, so
    after each of _CHECKPOINTS iterations this yields the classes that
    join the terms whose duals are below (1 - _INTERIOR) times their
    bound, with c(y). The choice needs no merge decisions, and _newton
    adds the zero jumps it missed. Q~ is inverted once.
    """
    triples, w, sizes = problem.triples, problem.w, problem.sizes
    count = sizes.size
    inverse = np.linalg.solve(problem.quad + problem.stiffening, np.eye(count))
    linear = problem.linear + sizes * (problem.total / sizes.sum())
    owns, ends = triples[:, 0], triples[:, 1:].T  # E_t c = c[ends] - c[owns]
    flat_ends, both = ends.ravel(), np.concatenate([owns, owns])

    def spread(y):
        """sum_t E_t^T y_t for the (2, T) duals y."""
        return np.bincount(flat_ends, y.ravel(), count) - np.bincount(both, y.ravel(), count)

    def jumps(c):
        return c[ends] - c[owns]

    x = jumps(c - c.mean())
    if not x.any():  # a flat start: jumps of distinct values, which spread never zeroes
        x = jumps(np.arange(count, dtype=np.float64))
    for _ in range(_POWER_STEPS):
        x = jumps(inverse @ spread(x) / math.sqrt(np.vdot(x, x)))
    step = 1.0 / (_POWER_MARGIN * math.sqrt(np.vdot(x, x)))
    x = jumps(c)
    y = x * (w / np.maximum(np.hypot(x[0], x[1]), _TINY))
    ahead, t = y, 1.0
    for k in range(1, _CHECKPOINTS[-1] + 1):
        nxt = ahead + step * jumps(inverse @ (linear - spread(ahead)))
        nxt *= w / np.maximum(np.hypot(nxt[0], nxt[1]), w)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        ahead = nxt + ((t - 1.0) / t_next) * (nxt - y)
        y, t = nxt, t_next
        if k in _CHECKPOINTS:
            inside = np.hypot(y[0], y[1]) < (1.0 - _INTERIOR) * w
            start = inverse @ (linear - spread(y))
            yield _merge(count, triples, inside), start


@one_blas_thread()
def reduced_solve(
    u_k: Array, weights: Array, support: SupportSet, cache: ReducedCache
) -> InnerResult | None:
    """Solve admm_solve's problem exactly in the tie components' values.

    cache is the run's RunState with what the attempts of its run share
    (see ReducedCache): pass the same cache for every pass of a run.
    When the frozen ties of support leave at most _MAX_PIECES
    components, every feasible u is c[label] for C component values c,
    and v = K(f - u) with K = 1 / (1 + gamma + beta hth) per frequency,
    so the pass problem becomes
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
    start certifies within _NEWTON_STEPS steps, and counts the latter in
    cache.declines; the pass is then for admm_solve. Runs on one BLAS
    thread (one_blas_thread): its result does not depend on the count.
    """
    u_k = as_grid(u_k, "u_k")
    weights = _checked_weights(weights)
    if not (u_k.shape == weights.shape == support.active.shape == cache.shape):
        raise ValueError("reduced_solve inputs must share one grid shape")
    pieces = cache.pieces_of(support)
    if pieces is None:
        return None
    label, sizes = pieces.label, pieces.sizes
    count = sizes.size
    u_sums = np.bincount(label, u_k.ravel(), count)
    linear = np.bincount(label, cache.smooth_f.ravel(), count) + cache.rho * u_sums
    quad = cache.smooth(pieces) + cache.rho * np.diag(sizes)
    w = cache.params.alpha * np.bincount(
        pieces.term_of, weights.ravel()[pieces.term_pixels], pieces.triples.shape[0]
    )
    # the sum of the minimizer's u, from the zero frequency alone
    s0 = cache.params.gamma / (1.0 + cache.params.gamma)
    total = (s0 * cache.f.sum() + cache.rho * u_k.sum()) / (s0 + cache.rho)
    problem = _Problem(quad, linear, pieces.triples, w, sizes, total)
    c = None
    if count <= _NEWTON_FIRST:
        c = _newton(problem, u_sums / sizes, np.arange(count))
    if c is None:
        for cls, start in _merges(problem, u_sums / sizes):
            c = _newton(problem, start, cls)
            if c is not None:
                break
    if c is None:
        cache.declines += 1
        return None
    cache.solves += 1
    u = c[label].reshape(cache.shape)
    v_hat = (cache.f_hat - np.fft.rfft2(u)) / cache.b
    return InnerResult(u, np.fft.irfft2(v_hat, s=cache.shape), 0, v_hat=v_hat)
