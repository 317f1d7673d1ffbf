"""Stage two: cluster the corrected image values and label phases.

Scalar clustering admits an exact solution: sorted values have an
optimal partition into contiguous runs, found by dynamic programming
(the Ckmeans.1d.dp recurrence). Its best split index is monotone in the
right endpoint, so each inner layer is filled by divide and conquer,
run breadth first: all subproblems of one recursion depth are solved in
one vectorised round over blocks of at most _BLOCK candidate splits,
about log2(m) rounds per layer for m distinct values. Only the last
layer's final endpoint is ever read back, so that layer is one such
round over every split. Thresholds sit
midway between consecutive cluster means and each pixel gets the
1-based label of the interval its value falls in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Array, as_grid


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
    """
    lo, hi, opt_lo, opt_hi = np.atleast_1d(lo, hi, opt_lo, opt_hi)
    while lo.size:
        if lo.size > _BLOCK:  # the subproblems are independent of each other
            h = lo.size // 2
            _fill_layer(cost_prev, w, s1, s2, lo[:h], hi[:h], opt_lo[:h], opt_hi[:h],
                        out_cost, out_arg)
            lo, hi, opt_lo, opt_hi = lo[h:], hi[h:], opt_lo[h:], opt_hi[h:]
        mid = (lo + hi) // 2
        out_cost[mid], arg = _first_minima(cost_prev, w, s1, s2, mid, opt_lo, opt_hi)
        out_arg[mid] = arg
        left, right = lo < mid, mid + 1 < hi
        lo = np.concatenate([lo[left], mid[right] + 1])
        hi = np.concatenate([mid[left], hi[right]])
        opt_lo = np.concatenate([opt_lo[left], arg[right]])
        opt_hi = np.concatenate([arg[left] + 1, opt_hi[right]])


def kmeans_1d(values, k: int) -> np.ndarray:
    """K ascending cluster means minimizing within-cluster sum of squares.

    Duplicates collapse to weighted points first; the contiguous
    partition of the sorted distinct values is then optimized exactly,
    so the result is the deterministic global minimizer.
    """
    vals = np.asarray(values, dtype=np.float64).ravel()
    if k < 2:
        raise ValueError(f"need at least 2 clusters, got k={k}")
    if not np.all(np.isfinite(vals)):
        raise ValueError("values contain NaN or infinite entries")
    with np.errstate(over="ignore"):
        w, s1, s2 = _prefix_moments(*np.unique(vals, return_counts=True))
        # every squared run sum is at most w[-1] * s2[-1] (Cauchy-Schwarz)
        overflow = not np.isfinite(w[-1] * s2[-1])
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
    splits = []
    for j in range(1, k - 1):
        new_cost = np.full(m + 1, np.inf)
        new_arg = np.zeros(m + 1, dtype=np.intp)
        # runs must be nonempty: endpoint b >= j+1, split a >= j
        _fill_layer(cost, w, s1, s2, j + 1, m + 1, j, m, new_cost, new_arg)
        cost = new_cost
        splits.append(new_arg)

    # the last layer is read only at b = m: one round over splits a >= k-1
    _, last = _first_minima(cost, w, s1, s2, np.array([m]), np.array([k - 1]), np.array([m]))
    bounds = [m, int(last[0])]
    for arg in reversed(splits):
        bounds.append(int(arg[bounds[-1]]))
    bounds.append(0)
    bounds.reverse()

    means = np.empty(k)
    for i, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        means[i] = (s1[b] - s1[a]) / (w[b] - w[a])
    return means


def segment(u: Array, k: int) -> SegmentationResult:
    """Label every pixel of u into one of k phases.

    Thresholds sit halfway between consecutive cluster means; the
    label rule is threshold[i-1] < value <= threshold[i], so labels
    are monotone in pixel value.
    """
    u = as_grid(u, "u")
    means = kmeans_1d(u.ravel(), k)
    thresholds = (means[:-1] + means[1:]) / 2.0
    labels = 1 + np.searchsorted(thresholds, u, side="left")
    return SegmentationResult(
        k=k,
        cluster_means=tuple(float(m) for m in means),
        thresholds=tuple(float(t) for t in thresholds),
        labels=labels.astype(np.int64, copy=False),
    )
