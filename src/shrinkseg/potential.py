"""Concave power penalty applied to gradient magnitudes.

The penalty t -> t**p with 0 < p < 1 is continuous, concave and
coercive, vanishes at 0, and has an unbounded derivative at 0+. The
unbounded derivative is what drives small gradients exactly to zero
in the outer loop, so deriv() refuses t <= 0 by contract: the solver
only ever evaluates it on the active support where magnitudes are
strictly positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PowerPotential:
    """t**p with exponent p strictly inside (0, 1). Default p = 0.5."""

    p: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"exponent must satisfy 0 < p < 1, got {self.p}")

    def value(self, t):
        """t**p for t >= 0; exactly 0 at t = 0. Accepts scalars or arrays."""
        t = np.asarray(t, dtype=np.float64)
        if np.any(t < 0):
            raise ValueError("potential is only defined for t >= 0")
        out = np.power(t, self.p)
        return out if out.ndim else float(out)

    def deriv(self, t):
        """p * t**(p-1) for t > 0 strictly; rejects t <= 0."""
        t = np.asarray(t, dtype=np.float64)
        if np.any(t <= 0):
            raise ValueError("potential derivative requires t > 0")
        out = self.p * np.power(t, self.p - 1.0)
        return out if out.ndim else float(out)
