"""Objective of the smooth-plus-piecewise-constant split.

The objective couples a quadratic fidelity term with the concave
potential phi(t) = t**p, 0 < p < 1, of the cartoon part's gradient
magnitudes and Tikhonov terms on the smooth part. phi is continuous,
coercive and vanishes at 0; its slope is unbounded at 0+, which is
what drives small gradients exactly to zero in the outer loop. The
Hessian smoothness term is evaluated by Parseval from the symbol of
H^T H on the rfft2 half spectrum, the same symbol the inner solver
inverts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Array, as_grid, check_fields, compute_symbols, grad, grad_norms, is_number


@dataclass(frozen=True)
class ModelParams:
    """Weights of the decomposition objective.

    alpha scales the concave gradient penalty, beta the Hessian
    smoothness term, gamma the plain quadratic on the smooth part, and
    p is the exponent of the potential phi(t) = t**p.
    """

    alpha: float
    beta: float
    gamma: float = 1e-8
    p: float = 0.5

    def __post_init__(self):
        check_fields(self, ("alpha", "beta", "gamma"), "finite and positive")
        if not is_number(self.p):
            raise ValueError(f"p must be a number, got {self.p!r}")
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"exponent must satisfy 0 < p < 1, got {self.p}")

    def potential(self, t):
        """phi(t) = t**p for t >= 0; exactly 0 at t = 0. Scalars or arrays."""
        t = np.asarray(t, dtype=np.float64)
        if np.any(t < 0):
            raise ValueError("potential is only defined for t >= 0")
        out = np.power(t, self.p)
        return out if out.ndim else float(out)

    def slope(self, t):
        """phi'(t) = p * t**(p-1) for t > 0 strictly; rejects t <= 0, as
        the solver reads it only on the active support, where gradient
        magnitudes are strictly positive."""
        t = np.asarray(t, dtype=np.float64)
        if np.any(t <= 0):
            raise ValueError("potential derivative requires t > 0")
        out = self.p * np.power(t, self.p - 1.0)
        return out if out.ndim else float(out)


def decomposition_energy(
    f: Array, u: Array, v: Array, params: ModelParams, norms: Array | None = None,
    v_hat: Array | None = None,
) -> float:
    """Objective: fidelity + concave gradient penalty + smoothness.

    The gradient penalty sums over every pixel; zero-gradient pixels
    contribute nothing since the potential vanishes at zero. norms, when
    given, must be grad_norms(grad(u)), which a caller that needs them
    anyway can pass in. The smoothness term beta/2 ||Hv||^2 is beta/2
    sum(weights * hth * |rfft2(v)|^2) on the half spectrum; v_hat, when
    given, is used as rfft2(v), as a solver that formed v from it can
    pass in.
    """
    f = as_grid(f, "f")
    u = as_grid(u, "u")
    v = as_grid(v, "v")
    if len(shapes := {f.shape, u.shape, v.shape}) > 1:
        raise ValueError(f"grid shapes disagree: {sorted(shapes)}")
    if norms is None:
        norms = grad_norms(grad(u))
    elif np.shape(norms) != u.shape:
        raise ValueError(f"norms must have the grid shape {u.shape}, got {np.shape(norms)}")
    if v_hat is None:
        v_hat = np.fft.rfft2(v)
    elif np.shape(v_hat) != (u.shape[0], u.shape[1] // 2 + 1):
        raise ValueError(f"v_hat must be the rfft2 shape of {u.shape}, got {np.shape(v_hat)}")

    resid = f - u - v
    fidelity = 0.5 * float(np.vdot(resid, resid).real)
    penalty = params.alpha * float(np.sum(params.potential(norms)))
    symbols = compute_symbols(f.shape)
    v_power = v_hat.real**2 + v_hat.imag**2
    smooth = 0.5 * params.beta * float(np.sum(symbols.weights * symbols.hth * v_power))
    ridge = 0.5 * params.gamma * float(np.vdot(v, v).real)
    return fidelity + penalty + smooth + ridge

