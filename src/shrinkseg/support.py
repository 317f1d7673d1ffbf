"""Active-gradient support sets and their monotone shrinking."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# grad is not called here, but perfbench/tracing.py wraps shrinkseg.support.grad
from .grid import Array, grad  # noqa: F401


@dataclass(frozen=True)
class SupportSet:
    """Partition of pixels into active (nonzero gradient) and frozen sets.

    active[i, j] is True where the gradient is treated as nonzero. The
    outer loop only ever removes pixels, never re-adds them; use
    detect_support to update so the nesting is enforced by construction.
    """

    active: Array

    def __post_init__(self):
        a = np.asarray(self.active)
        if a.dtype != np.bool_ or a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("support mask must be a square boolean array")
        object.__setattr__(self, "active", a)

    @property
    def n(self) -> int:
        return self.active.shape[0]

    @property
    def size(self) -> int:
        """Number of active pixels."""
        return int(self.active.sum())


def initial_support(norms: Array, tau_supp: float) -> SupportSet:
    """Pixels whose gradient magnitude, grad_norms(grad(u)), exceeds tau_supp."""
    return SupportSet(norms > tau_supp)


def detect_support(norms: Array, prev: SupportSet, tau_supp: float) -> SupportSet:
    """Shrink prev to the pixels whose gradient norms are still above tau_supp.

    Intersecting with prev keeps the support sequence nested even when
    the inner solver leaves small nonzero gradients behind.
    """
    if norms.shape != prev.active.shape:
        raise ValueError("support and image shapes disagree")
    return SupportSet(prev.active & (norms > tau_supp))


def project_to_support(u: Array, support: SupportSet) -> Array:
    """Nearest image whose gradient vanishes exactly off the support.

    A frozen pixel ties itself to its right and lower neighbors; the
    resulting connected components must be constant, and the euclidean
    projection replaces each component by its mean. Pixels touched by
    no tie are returned unchanged.
    """
    if u.shape[0] != support.n:
        raise ValueError("support and image shapes disagree")
    frozen = ~support.active
    if not frozen.any():
        return u.copy()
    n = support.n
    # flat ids of each frozen pixel's right and lower neighbors, periodic
    pix = np.flatnonzero(frozen)
    right = pix + 1
    right[pix % n == n - 1] -= n
    down = (pix + n) % (n * n)
    # Label the tie components by hook and compress (Shiloach & Vishkin
    # 1982). a[t], b[t] are the roots of tie t's ends, every pixel being
    # its own root at first. Each round hooks the larger root of every
    # split tie onto the smaller one; a write only ever lowers a root, so
    # no cycle can form. Pointer jumping then sends each pixel straight
    # to its root, and the ties whose ends now share a root are dropped.
    label = np.arange(n * n)
    a, b = np.concatenate([pix, pix]), np.concatenate([right, down])
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
    # bincount adds each component in pixel order whatever its label, so
    # the means do not depend on how components are numbered; only roots
    # have a nonzero count
    sums = np.bincount(label, weights=u.ravel())
    counts = np.bincount(label)
    return (sums[label] / counts[label]).reshape(n, n)
