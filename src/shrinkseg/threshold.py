"""Stage two: cluster the corrected image values and label phases.

Scalar clustering admits an exact solution: sorted values have an
optimal partition into contiguous runs, found by dynamic programming
(the Ckmeans.1d.dp recurrence). Its best split index is monotone in the
right endpoint, so each inner layer is filled by divide and conquer,
run breadth first: all subproblems of one recursion depth are solved in
one vectorised round over blocks of at most _BLOCK candidate splits,
about log2(m) rounds per layer for m distinct values. Once every open
endpoint against its subproblem's whole split range fits one block,
one last round finishes the layer, so few-valued images take one
round per layer. Only the last layer's final endpoint is ever read
back, so that layer is one such round. Outside the blocks, only arrays
of m + 1 entries grow with m: the prefix moments, and a cost and a
split array per layer.

On many values, every full layer is filled only over a window of
rows that may lie on an optimal path (see _windows), and each layer,
the last round included, reads its splits only from the extent of the
window before it; at K = 2 the one round reads layer 0's window. The
same program on the moments at a coarse grid bounds each cell's cost
from below, from the left and, on the reversed moments, from the
right; Lloyd steps from the coarse optimum give a partition whose cost
bounds the optimum from above. A cell whose two lower bounds add up to
more than that, plus the rounding slack, holds no optimal row. Rows
on an optimal path, and the splits they read, keep their costs, so
the means are those of a full scan, bit for bit.

Thresholds sit midway between consecutive cluster means and each
pixel's label is 1 plus the number of thresholds below its value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Array, as_grid, check_count


@dataclass(frozen=True)
class SegmentationResult:
    """Cluster means, the midpoint thresholds, and the label map."""

    k: int
    cluster_means: tuple[float, ...]
    thresholds: tuple[float, ...]
    labels: Array

    def __post_init__(self):
        if len(self.cluster_means) != self.k or len(self.thresholds) != self.k - 1:
            raise ValueError("means/thresholds lengths inconsistent with k")


_BLOCK = 1 << 14  # most candidate splits per block, and open subproblems per round
_SLACK = 1e-9  # rounding slack of the bounds, per unit of s2[-1]
_CELL = 64  # rows per coarse cell of the windows' bounds
_WINDOWED = 128  # fewest coarse cells for which the windows pay
_LLOYD = 20  # most Lloyd steps of the windows' upper bound


def _prefix_moments(vals: Array, weights: Array):
    """Cumulative weight, weighted sum, and weighted square sum, led by zeros."""
    w, s1, s2 = np.zeros((3, vals.size + 1))
    np.cumsum(weights, out=w[1:])
    np.cumsum(weights * vals, out=s1[1:])
    np.cumsum(weights * vals * vals, out=s2[1:])
    return w, s1, s2


def _first_minima(cost_prev, w, s1, s2, mid, opt_lo, opt_hi):
    """Best cost and first best split of every endpoint mid[i] over the
    nonempty candidate splits [opt_lo[i], min(opt_hi[i], mid[i])).

    All candidates form one run of segments, evaluated _BLOCK at a time.
    A segment cut by a block boundary takes a later block's minimum only
    if it is strictly smaller: ties go to the smallest split, as
    np.argmin picks them.
    """
    counts = np.minimum(opt_hi, mid) - opt_lo
    ends = np.cumsum(counts)
    starts = ends - counts
    best, arg = np.empty(mid.size), np.empty(mid.size, dtype=np.intp)
    for c0 in range(0, ends[-1], _BLOCK):
        c1 = min(c0 + _BLOCK, ends[-1])
        i0, i1 = np.searchsorted(ends, c0, side="right"), np.searchsorted(starts, c1)
        # the block's segments cut to [c0, c1): their local heads and lengths
        head = np.maximum(starts[i0:i1], c0)
        lengths = np.minimum(ends[i0:i1], c1) - head
        head -= c0
        a = np.arange(c0, c1) + np.repeat(opt_lo[i0:i1] - starts[i0:i1], lengths)
        # seg_cost(a, mid) + cost_prev[a], endpoint moments repeated per candidate
        seg_w, seg_s1, total = (np.repeat(x[mid[i0:i1]], lengths) for x in (w, s1, s2))
        seg_w -= w[a]
        seg_s1 -= s1[a]
        total -= s2[a]
        np.square(seg_s1, out=seg_s1)
        seg_s1 /= seg_w
        total -= seg_s1
        total += cost_prev[a]
        # first minimum of each segment in the block
        hits = np.flatnonzero(total == np.repeat(np.minimum.reduceat(total, head), lengths))
        first = hits[np.searchsorted(hits, head)]
        keep = int(starts[i0] < c0 and not total[first[0]] < best[i0])
        best[i0 + keep : i1], arg[i0 + keep : i1] = total[first[keep:]], a[first[keep:]]
    return best, arg


def _fill_layer(cost_prev, w, s1, s2, lo, hi, opt_lo, opt_hi, out_cost, out_arg):
    """Fill out_cost[lo:hi] given the split argmin lies in [opt_lo, opt_hi).

    Every layer but the last is filled this way. The optimal split index
    is nondecreasing in the right endpoint, so divide and conquer keeps
    the total work near-linear per layer. The recursion runs breadth
    first: the open subproblems of one depth are held in four index
    arrays and their midpoints solved in one round of _first_minima,
    about log2(hi - lo) rounds per layer. Past _BLOCK subproblems the
    first half is finished depth first, so these arrays stay bounded.
    Once the endpoints times the split ranges of the open subproblems
    fit one block, every open endpoint takes its first minimum over its
    subproblem's whole range in one round. The narrower ranges of the
    divide and conquer hold the same first minimum, since it is
    nondecreasing in the endpoint.

    lo, hi, opt_lo and opt_hi may also be arrays of several subproblems,
    such as the row ranges of a window (broadcast against each other).
    """
    lo, hi, opt_lo, opt_hi = np.atleast_1d(*np.broadcast_arrays(lo, hi, opt_lo, opt_hi))
    while lo.size:
        if lo.size > _BLOCK:  # the subproblems are independent of each other
            h = lo.size // 2
            _fill_layer(cost_prev, w, s1, s2, lo[:h], hi[:h], opt_lo[:h], opt_hi[:h],
                        out_cost, out_arg)
            lo, hi, opt_lo, opt_hi = lo[h:], hi[h:], opt_lo[h:], opt_hi[h:]
        if (hi - lo) @ (opt_hi - opt_lo) <= _BLOCK:
            # every endpoint against its subproblem's whole split range fits
            # one block: finish them all in this round
            counts = hi - lo
            mid = np.arange(counts.sum()) + np.repeat(lo - np.cumsum(counts) + counts, counts)
            out_cost[mid], out_arg[mid] = _first_minima(
                cost_prev, w, s1, s2, mid, np.repeat(opt_lo, counts), np.repeat(opt_hi, counts)
            )
            return
        mid = (lo + hi) // 2
        out_cost[mid], arg = _first_minima(cost_prev, w, s1, s2, mid, opt_lo, opt_hi)
        out_arg[mid] = arg
        left, right = lo < mid, mid + 1 < hi
        lo = np.concatenate([lo[left], mid[right] + 1])
        hi = np.concatenate([mid[left], hi[right]])
        opt_lo = np.concatenate([opt_lo[left], arg[right]])
        opt_hi = np.concatenate([arg[left] + 1, opt_hi[right]])


def _cell_bounds(first, w, s1, s2, layers):
    """Per layer j = 0..layers, a lower bound on the cost of every row of
    each coarse cell, and each coarse layer's splits.

    w, s1, s2 are the moments at the coarse points p, and first[i] is
    the cost of one run up to p[i]. Cell i holds the rows [p[i], p[i+1]).
    A row b of cell i whose last split a lies in cell c costs at least
    the bound of cell c in the layer before plus the cost of [p[c+1],
    p[i]), a run inside [a, b) (none for c = i - 1 or c = i). So each
    coarse layer is one _fill_layer over the previous bounds shifted by
    one point, and the two runs that are empty are added. Costs rise
    with the row, so the bounds are made nondecreasing. Split x of cell
    i means that the last split lies in cell x - 1.
    """
    size = w.size
    bounds, splits = [first], []
    for _ in range(layers):
        shifted = np.append(np.inf, bounds[-1])
        out, arg = np.full(size, np.inf), np.arange(size)
        _fill_layer(shifted, w, s1, s2, 2, size - 1, 1, size - 2, out, arg)
        out, arg = out[:-1], arg[:-1]
        for prev, step in ((shifted[:-1], 0), (bounds[-1], 1)):
            less = prev < out
            out[less], arg[less] = prev[less], np.flatnonzero(less) + step
        bounds.append(np.maximum.accumulate(out))
        splits.append(arg)
    return bounds, splits


def _upper_bound(vals, w, s1, s2, starts):
    """The lowest cost of the partitions that up to _LLOYD Lloyd steps
    reach from the runs that begin at starts. Each step moves every
    boundary to the midpoint of the means beside it. The loop ends early
    once the boundaries stop moving or a run empties."""
    best = np.inf
    for _ in range(_LLOYD):
        bounds = np.concatenate(([0], starts, [w.size - 1]))
        if np.any(np.diff(bounds) <= 0):
            break
        run_w, run_s1 = np.diff(w[bounds]), np.diff(s1[bounds])
        best = min(best, float(np.sum(np.diff(s2[bounds]) - run_s1**2 / run_w)))
        means = run_s1 / run_w
        moved = np.searchsorted(vals, (means[:-1] + means[1:]) / 2.0, side="right")
        if np.array_equal(moved, starts):
            break
        starts = moved
    return best


def _bounds(cost, w, s1, s2, points, k):
    """Per layer j = 0..k-2, lower bounds on every row of each cell
    between the points: forward ones on the cost of its first j + 1
    runs, and backward ones, from the reversed moments, on the cost of
    the k - 1 - j runs after it. Also the forward splits."""
    pw, ps1, ps2 = w[points], s1[points], s2[points]
    forward, splits = _cell_bounds(cost[points[:-1]], pw, ps1, ps2, k - 2)
    rw, rs1, rs2 = ((x[-1] - x)[::-1] for x in (pw, ps1, ps2))
    first = (rs2 - np.divide(rs1**2, rw, out=np.zeros(points.size), where=rw > 0))[:-1]
    backward, _ = _cell_bounds(first, rw, rs1, rs2, k - 2)
    return forward, [b[::-1] for b in reversed(backward)], splits


def _windows(vals, cost, w, s1, s2, k):
    """Per layer j = 0..k-2, the row ranges (lo, hi) of its window.

    The m rows are cut into m // _CELL cells with the bounds of
    _bounds. A cell is in the window if its two bounds add up to at most
    the upper bound plus _SLACK * s2[-1]. The upper bound starts from
    the coarse optimum, with each run begun mid-cell. Every row of an
    optimal path is in its window, and so is every split of an optimal
    path. A window that ends at row m also holds row m, so a window
    over every cell is the whole layer.
    """
    m = w.size - 1
    points = np.linspace(0, m, m // _CELL + 1).round().astype(np.intp)
    forward, backward, splits = _bounds(cost, w, s1, s2, points, k)
    # the cell of the last split (backward[-1]: the last run), then those before it
    cells = [int(np.argmin(forward[-1] + backward[-1]))]
    for arg in reversed(splits):
        cells.append(arg[cells[-1]] - 1)
    cells.reverse()
    starts = (points[cells] + points[1:][cells]) // 2
    # two runs begun in one cell are moved apart
    starts = np.maximum.accumulate(starts - np.arange(k - 1)) + np.arange(k - 1)
    upper = _upper_bound(vals, w, s1, s2, starts) + _SLACK * s2[-1]
    rows = []
    for f, b in zip(forward, backward):
        edges = np.flatnonzero(np.diff(np.concatenate(([False], f + b <= upper, [False]))))
        lo, hi = points[edges[0::2]], points[edges[1::2]]
        hi[-1] += hi[-1] == m
        rows.append((lo, hi))
    return rows


def kmeans_1d(values, k: int) -> np.ndarray:
    """K ascending cluster means minimizing within-cluster sum of squares.

    Duplicates collapse to weighted points first; the contiguous
    partition of the sorted distinct values is then optimized exactly,
    so the result is the deterministic global minimizer.
    """
    check_count(k, "k", 2)
    vals = np.asarray(values, dtype=np.float64).ravel()
    if not np.all(np.isfinite(vals)):
        raise ValueError("values contain NaN or infinite entries")
    distinct, counts = np.unique(vals, return_counts=True)
    with np.errstate(over="ignore"):
        w, s1, s2 = _prefix_moments(distinct, counts)
        # every squared run sum is at most w[-1] * s2[-1] (Cauchy-Schwarz)
        overflow = not np.isfinite(w[-1] * s2[-1])
    del counts
    m = w.size - 1
    if m < k:
        raise ValueError(f"need at least {k} distinct values for k={k}, got {m}")
    if overflow:
        raise ValueError("values too large: their squared sums overflow float64")

    # cost[j][b]: best WCSS of the first b points split into j+1 runs;
    # cost[0] = s2 - s1**2 / w, in place, where w > 0 (all are 0 at b = 0)
    cost = s1**2
    cost[1:] /= w[1:]
    np.subtract(s2, cost, out=cost)
    if m // _CELL >= _WINDOWED:
        windows = _windows(distinct, cost, w, s1, s2, k)
    else:  # one window of every row
        windows = [(np.array([0]), np.array([m + 1]))] * (k - 1)
    del distinct
    splits = []
    for j in range(1, k):
        # runs must be nonempty: split a >= j, in the window before
        opt_lo, opt_hi = max(j, windows[j - 1][0][0]), min(m, windows[j - 1][1][-1])
        if j == k - 1:  # the last layer: only its splits are needed
            break
        new_cost = np.full(m + 1, np.inf)
        new_arg = np.zeros(m + 1, dtype=np.intp)
        # endpoint b >= j+1, in the layer's window
        lo, hi = np.maximum(windows[j][0], opt_lo + 1), windows[j][1]
        lo, hi = lo[lo < hi], hi[lo < hi]
        _fill_layer(cost, w, s1, s2, lo, hi, opt_lo, opt_hi, new_cost, new_arg)
        cost = new_cost
        splits.append(new_arg)

    # the last layer is read only at b = m: one round over its splits
    _, last = _first_minima(cost, w, s1, s2, np.array([m]), np.array([opt_lo]),
                            np.array([opt_hi]))
    bounds = [m, int(last[0])]
    for arg in reversed(splits):
        bounds.append(int(arg[bounds[-1]]))
    bounds.append(0)
    bounds.reverse()
    return np.diff(s1[bounds]) / np.diff(w[bounds])


def segment(u: Array, k: int) -> SegmentationResult:
    """Label every pixel of u into one of k phases.

    Thresholds sit halfway between consecutive cluster means; the
    label rule is threshold[i-1] < value <= threshold[i], so labels
    are monotone in pixel value.
    """
    u = as_grid(u, "u")
    means = kmeans_1d(u.ravel(), k)
    thresholds = (means[:-1] + means[1:]) / 2.0
    # 1 + the count of thresholds below each value: the interval
    # searchsorted(side="left") finds, without a search per pixel
    labels = np.ones(u.shape, dtype=np.int64)
    for t in thresholds:
        labels += u > t
    return SegmentationResult(
        k=k,
        cluster_means=tuple(float(m) for m in means),
        thresholds=tuple(float(t) for t in thresholds),
        labels=labels,
    )
