"""Outer support-shrinking loop around the splitting solver.

Starting from (u, v) = (f, f), each outer pass reweights the gradient
penalty at the current iterate, solves the resulting convex problem on
the active support, then drops pixels whose gradient fell below the
support threshold. Supports only ever shrink, which is what makes the
loop terminate with a stable zero set.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .admm import AdmmParams, admm_solve
from .energy import ModelParams, decomposition_energy
from .grid import Array, as_grid, grad, grad_norms
from .support import (
    detect_support,
    initial_support,
    project_to_support,
)


@dataclass(frozen=True)
class OuterParams:
    """Proximal weight, stopping rule, and support threshold.

    tau_supp = None picks 1e-8 times the largest gradient magnitude of
    the input, so "zero gradient" is judged relative to image scale.
    """

    rho: float = 1e-8
    tol_out: float = 1e-4
    maxit_out: int = 10
    tau_supp: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise ValueError(f"rho must be positive, got {self.rho!r}")
        if not (math.isfinite(self.tol_out) and self.tol_out > 0):
            raise ValueError(f"tol_out must be positive, got {self.tol_out!r}")
        if self.maxit_out < 1:
            raise ValueError(f"maxit_out must be at least 1, got {self.maxit_out!r}")
        if self.tau_supp is not None and not (
            math.isfinite(self.tau_supp) and self.tau_supp >= 0
        ):
            raise ValueError(f"tau_supp must be nonnegative, got {self.tau_supp!r}")


@dataclass(frozen=True)
class TraceRow:
    """State of one outer iterate plus the step taken from it.

    energy, support_size, min_nonzero_grad and max_grad describe the
    iterate itself; increment and inner_iters describe the move to the
    next iterate and are zero on the final row. inner_iters counts the
    sweeps of both solves when a pass was solved again at tol_in.
    max_grad is a diagnostic over all pixels and is not serialized.
    """

    k: int
    energy: float
    increment: float
    support_size: int
    min_nonzero_grad: float
    inner_iters: int
    max_grad: float


@dataclass(frozen=True)
class IterationTrace:
    rows: tuple[TraceRow, ...]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __getitem__(self, i):
        return self.rows[i]

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(row, name) for row in self.rows])


@dataclass(frozen=True)
class DecompositionResult:
    """Final split f ~ u + v together with the full iteration record."""

    u: Array
    v: Array
    trace: IterationTrace
    converged: bool
    outer_iters: int
    energy_increased: bool
    tau_supp: float
    capped_solves: int  # inner solves that stopped at maxit_in


def _stacked_norm(a: Array, b: Array) -> float:
    return math.sqrt(float(np.vdot(a, a).real) + float(np.vdot(b, b).real))


def resolve_tau_supp(f: Array, outer: OuterParams) -> float:
    if outer.tau_supp is not None:
        return outer.tau_supp
    return 1e-8 * float(grad_norms(grad(f)).max())


def decompose(
    f: Array,
    params: ModelParams,
    outer: OuterParams | None = None,
    admm: AdmmParams | None = None,
) -> DecompositionResult:
    """Split f into a piecewise-constant part u and a smooth part v.

    Appends one trace row per outer iterate, including the final one,
    so a run with T inner solves yields T+1 rows. An energy increase
    beyond 1e-8 times the initial energy is flagged and warned about
    but does not abort the run.

    A pixel freezes once its gradient falls below tau, the resolved
    tau_supp, so outer pass k solves its inner problem only to
    tol_k = max(admm.tol_in, tau / ||(u_k, v_k)||). A pass solved looser
    than tol_in must leave the projected iterate with energy no higher
    than F(u_k, v_k) (the sufficient-decrease condition H1 of Attouch,
    Bolte & Svaiter 2013); otherwise the pass is solved again from
    (u_k, v_k) at tol_in, and that result is kept. Once a pass meets
    tol_out, every later pass runs at tol_in, so only a pass at tol_in
    can end the run. When tau / ||(u_k, v_k)|| <= tol_in, as for the
    default tau_supp on ordinary images, every pass runs at tol_in and
    H1 is not checked.
    """
    f = as_grid(f, "f")
    outer = outer or OuterParams()
    admm = admm or AdmmParams()
    tau = resolve_tau_supp(f, outer)

    u = f.copy()
    v = f.copy()
    norms = grad_norms(grad(u))  # of the current iterate: support, weights and trace
    support = initial_support(norms, tau)
    energy = decomposition_energy(f, u, v, params)
    mono_tol = 1e-8 * energy

    rows: list[TraceRow] = []
    converged = False
    increased = False
    capped = 0
    exact = False  # set once a pass meets tol_out: later passes run at tol_in
    prev_energy = math.inf

    def record(energy: float, increment: float, inner_iters: int) -> None:
        nonlocal prev_energy, increased
        if energy > prev_energy + mono_tol:
            increased = True
            warnings.warn(
                f"energy increased at outer iteration {len(rows)}: "
                f"{prev_energy:.6e} -> {energy:.6e}",
                RuntimeWarning,
                stacklevel=3,
            )
        rows.append(
            TraceRow(
                k=len(rows),
                energy=energy,
                increment=increment,
                support_size=support.size,
                min_nonzero_grad=float(norms[support.active].min()) if support.size else 0.0,
                inner_iters=inner_iters,
                max_grad=float(norms.max()),
            )
        )
        prev_energy = energy

    for _ in range(outer.maxit_out):
        weights = np.zeros_like(f)
        weights[support.active] = params.potential.deriv(norms[support.active])
        denom = _stacked_norm(u, v)
        # accuracy below tau cannot change which pixels freeze next
        tol = admm.tol_in if exact or denom == 0 else max(admm.tol_in, tau / denom)

        inner_iters = 0
        while True:
            inner = admm_solve(f, u, v, weights, support, params, outer.rho, admm, tol=tol)
            inner_iters += inner.iters
            capped += int(inner.iters >= admm.maxit_in)
            # restore exact feasibility: the square-root penalty has
            # unbounded slope at zero, so even tiny leftover gradients on
            # the frozen set would otherwise leak into the energy
            u_next = project_to_support(inner.u, support)
            next_energy = decomposition_energy(f, u_next, inner.v, params)
            if tol <= admm.tol_in or next_energy <= energy:
                break
            tol = admm.tol_in  # H1 failed: solve the pass again, exactly
        increment = _stacked_norm(u_next - u, inner.v - v)
        record(energy, increment, inner_iters)

        u, v, energy = u_next, inner.v, next_energy
        norms = grad_norms(grad(u))
        support = detect_support(norms, support, tau)
        if increment <= outer.tol_out * denom:
            if tol <= admm.tol_in:
                converged = True
                break
            exact = True

    record(energy, 0.0, 0)
    return DecompositionResult(
        u=u,
        v=v,
        trace=IterationTrace(tuple(rows)),
        converged=converged,
        outer_iters=len(rows) - 1,
        energy_increased=increased,
        tau_supp=tau,
        capped_solves=capped,
    )
