"""Active-gradient support sets and their monotone shrinking.

A frozen pixel ties itself to its right and lower neighbors,
periodically (neighbors, the one tie rule), and u must be constant on
each component those ties form. Each SupportSet labels its components
once (labels, by the one hook-and-compress join), and both the reduced
attempt of a pass and the projection after an ADMM pass read that
labelling (see detect_support for how it is kept and grown).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# grad is not called here, but perfbench/tracing.py wraps shrinkseg.support.grad
from .grid import Array, grad  # noqa: F401


@dataclass(frozen=True, eq=False)
class SupportSet:
    """Partition of pixels into active (nonzero gradient) and frozen sets.

    active[i, j] is True where the gradient is treated as nonzero. The
    outer loop only ever removes pixels, never re-adds them; use
    detect_support to update so the nesting is enforced by construction.
    active is a read-only copy of the mask given, so the cached size and
    labels cannot go stale when the caller writes into its own array.
    Supports compare and hash by identity, as the caches keyed on them do.
    """

    active: Array

    def __post_init__(self):
        a = np.array(self.active)
        if a.dtype != np.bool_ or a.ndim != 2:
            raise ValueError("support mask must be a 2D boolean array")
        a.flags.writeable = False
        object.__setattr__(self, "active", a)

    @cached_property
    def size(self) -> int:
        """Number of active pixels."""
        return int(self.active.sum())

    @cached_property
    def labels(self) -> Array:
        """tie_labels of the frozen pixels, computed once per support
        (or grown from its parent's by detect_support)."""
        labels = tie_labels(~self.active)
        labels.flags.writeable = False
        return labels


def initial_support(norms: Array, tau_supp: float) -> SupportSet:
    """Pixels whose gradient magnitude, grad_norms(grad(u)), exceeds tau_supp."""
    return SupportSet(norms > tau_supp)


def detect_support(norms: Array, prev: SupportSet, tau_supp: float) -> SupportSet:
    """Shrink prev to the pixels whose gradient norms are still above tau_supp.

    Intersecting with prev keeps the support sequence nested even when
    the inner solver leaves small nonzero gradients behind. Returns prev
    itself, with its cached labels, when no pixel leaves it. Otherwise
    the new support's labels are grown from prev's (computed here if
    they are not yet): frozen sets only grow, so joining the newly
    frozen pixels' ties onto prev's labels is tie_labels' own join from
    further along, and gives its labels of the new frozen set bit for
    bit. The new support holds no reference to prev.
    """
    if norms.shape != prev.active.shape:
        raise ValueError("support and image shapes disagree")
    active = prev.active & (norms > tau_supp)
    if np.count_nonzero(active) == prev.size:
        return prev
    shrunk = SupportSet(active)
    pixels = np.flatnonzero(prev.active & ~active)
    labels = join(np.array(prev.labels), pixels, *neighbors(pixels, active.shape))
    labels.flags.writeable = False
    vars(shrunk)["labels"] = labels  # what the cached property would compute
    return shrunk


def tie_labels(frozen: Array) -> Array:
    """Flat component label of every pixel under the frozen ties.

    A frozen pixel ties itself to its neighbors (see neighbors). Returns
    a flat integer array over the pixels in row order that holds, for
    each pixel, the smallest flat id in its component, so a component's
    root is the one pixel labelled by itself. Pixels touched by no tie
    are their own roots.
    """
    pixels = np.flatnonzero(frozen)
    return join(np.arange(frozen.size), pixels, *neighbors(pixels, frozen.shape))


def neighbors(pixels: Array, shape: tuple[int, int]) -> tuple[Array, Array]:
    """The flat ids of the right and lower neighbors of the flat ids
    pixels on a grid of shape, periodic in both axes: the pixels a
    frozen pixel ties itself to."""
    m = shape[1]  # the row stride of the flat ids
    return pixels - pixels % m + (pixels + 1) % m, (pixels + m) % (shape[0] * m)


def join(label: Array, own: Array, right: Array, lower: Array) -> Array:
    """label once the set of each own[t] is joined to those of right[t]
    and lower[t].

    label[x] is the root of x, the smallest id of its set; label is
    written into. Hook and compress (Shiloach & Vishkin 1982): each round
    hooks the larger root of every split pair onto the smaller one; a
    write only ever lowers a root, so no cycle can form. Pointer jumping
    then sends each id straight to its root, and the pairs whose ends
    now share a root are dropped. The returned roots are again the
    smallest ids of their sets.
    """
    a, b = label[np.concatenate([own, own])], label[np.concatenate([right, lower])]
    while a.size:
        label[np.maximum(a, b)] = np.minimum(a, b)
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
        a, b = label[a], label[b]
        split = a != b
        a, b = a[split], b[split]
    return label


def project_to_support(u: Array, support: SupportSet) -> Array:
    """Nearest image whose gradient vanishes exactly off the support.

    The tie components of support.labels must be constant, and the
    euclidean projection replaces each component by its mean. Pixels
    touched by no tie are returned unchanged (a -0.0 as 0.0).
    """
    if u.shape != support.active.shape:
        raise ValueError("support and image shapes disagree")
    label = support.labels
    # bincount adds each component in pixel order whatever its label, so
    # the means do not depend on how components are numbered; only roots
    # have a nonzero count
    sums = np.bincount(label, weights=u.ravel())
    counts = np.bincount(label)
    return (sums[label] / counts[label]).reshape(u.shape)
