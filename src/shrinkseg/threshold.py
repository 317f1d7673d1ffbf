"""Stage two: cluster the corrected image values and label phases.

Scalar clustering admits an exact solution: sorted values have an
optimal partition into contiguous runs, found by dynamic programming
(the Ckmeans.1d.dp recurrence). Its best split index is monotone in the
right endpoint, so each inner layer is filled by divide and conquer,
run breadth first: all subproblems of one recursion depth are solved in
a single vectorised round, about log2(m) rounds per layer for m
distinct values. Only the last layer's final endpoint is ever read
back, so that layer is one argmin over every split. Thresholds sit
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


def _prefix_moments(vals: Array, weights: Array):
    """Cumulative weight, weighted sum, and weighted square sum."""
    w = np.concatenate([[0.0], np.cumsum(weights)])
    s1 = np.concatenate([[0.0], np.cumsum(weights * vals)])
    s2 = np.concatenate([[0.0], np.cumsum(weights * vals * vals)])
    return w, s1, s2


def _fill_layer(cost_prev, w, s1, s2, lo, hi, opt_lo, opt_hi, out_cost, out_arg):
    """Fill out_cost[lo:hi] given the split argmin lies in [opt_lo, opt_hi).

    Every layer but the last is filled this way. The optimal split index
    is nondecreasing in the right endpoint, so divide and conquer keeps
    the total work near-linear per layer. The recursion runs breadth
    first: every open subproblem of one depth is held in four index
    arrays and all of their midpoints are solved in one vectorised
    round, about log2(hi - lo) rounds per layer. Each candidate range is
    nonempty, which the segment reductions rely on. Ties go to the
    smallest split, as np.argmin picks them.
    """
    lo, hi = np.array([lo]), np.array([hi])
    opt_lo, opt_hi = np.array([opt_lo]), np.array([opt_hi])
    while lo.size:
        mid = (lo + hi) // 2
        # candidate splits [opt_lo, min(opt_hi, mid)) of all subproblems,
        # flattened into one run of segments
        counts = np.minimum(opt_hi, mid) - opt_lo
        ends = np.cumsum(counts)
        starts = ends - counts
        a = np.arange(ends[-1]) + np.repeat(opt_lo - starts, counts)
        # seg_cost(a, b) + cost_prev[a], endpoint moments repeated per candidate
        seg_w = np.repeat(w[mid], counts) - w[a]
        seg_s1 = np.repeat(s1[mid], counts) - s1[a]
        total = (np.repeat(s2[mid], counts) - s2[a]) - seg_s1**2 / seg_w + cost_prev[a]
        # first minimum of each segment, the one np.argmin would pick
        best = np.minimum.reduceat(total, starts)
        hits = np.flatnonzero(total == np.repeat(best, counts))
        first = hits[np.searchsorted(hits, starts)]
        arg = a[first]
        out_cost[mid] = total[first]
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
    distinct, weights = np.unique(vals, return_counts=True)
    m = distinct.size
    if m < k:
        raise ValueError(f"need at least {k} distinct values for k={k}, got {m}")

    with np.errstate(over="ignore"):
        w, s1, s2 = _prefix_moments(distinct, weights.astype(np.float64))
        # every squared run sum is at most w[-1] * s2[-1] (Cauchy-Schwarz)
        overflow = not np.isfinite(w[-1] * s2[-1])
    if overflow:
        raise ValueError("values too large: their squared sums overflow float64")

    # cost[j][b]: best WCSS of the first b points split into j+1 runs
    ends = np.arange(m + 1)
    cost = (s2[ends] - s2[0]) - np.divide(
        (s1[ends] - s1[0]) ** 2,
        w[ends] - w[0],
        out=np.zeros(m + 1),
        where=ends > 0,
    )
    splits = []
    for j in range(1, k - 1):
        new_cost = np.full(m + 1, np.inf)
        new_arg = np.zeros(m + 1, dtype=np.intp)
        # runs must be nonempty: endpoint b >= j+1, split a >= j
        _fill_layer(cost, w, s1, s2, j + 1, m + 1, j, m, new_cost, new_arg)
        cost = new_cost
        splits.append(new_arg)

    # the last layer is read only at b = m: one argmin over splits a >= k-1
    tail = slice(k - 1, m)
    total = (s2[m] - s2[tail]) - (s1[m] - s1[tail]) ** 2 / (w[m] - w[tail]) + cost[tail]
    bounds = [m, k - 1 + int(np.argmin(total))]
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
        labels=labels.astype(np.int64),
    )
