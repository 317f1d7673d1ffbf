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
    SupportSet,
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
    next iterate and are zero on the final row. max_grad is a
    diagnostic over all pixels and is not serialized.
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


def _stacked_norm(a: Array, b: Array) -> float:
    return math.sqrt(float(np.vdot(a, a).real) + float(np.vdot(b, b).real))


def _support_stats(u: Array, support: SupportSet) -> tuple[float, float]:
    """(min active gradient magnitude, max overall gradient magnitude)."""
    norms = grad_norms(grad(u))
    min_nz = float(norms[support.active].min()) if support.size else 0.0
    return min_nz, float(norms.max())


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
    """
    f = as_grid(f, "f")
    outer = outer or OuterParams()
    admm = admm or AdmmParams()
    tau = resolve_tau_supp(f, outer)

    u = f.copy()
    v = f.copy()
    support = initial_support(u, tau)
    energy = decomposition_energy(f, u, v, params)
    mono_tol = 1e-8 * energy

    rows: list[TraceRow] = []
    converged = False
    increased = False
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
        min_nz, max_grad = _support_stats(u, support)
        rows.append(
            TraceRow(
                k=len(rows),
                energy=energy,
                increment=increment,
                support_size=support.size,
                min_nonzero_grad=min_nz,
                inner_iters=inner_iters,
                max_grad=max_grad,
            )
        )
        prev_energy = energy

    for _ in range(outer.maxit_out):
        norms = grad_norms(grad(u))
        weights = np.zeros_like(f)
        weights[support.active] = params.potential.deriv(norms[support.active])

        inner = admm_solve(f, u, v, weights, support, params, outer.rho, admm)
        # restore exact feasibility: the square-root penalty has
        # unbounded slope at zero, so even tiny leftover gradients on
        # the frozen set would otherwise leak into the energy
        u_next = project_to_support(inner.u, support)
        increment = _stacked_norm(u_next - u, inner.v - v)
        denom = _stacked_norm(u, v)
        record(energy, increment, inner.iters)

        u, v = u_next, inner.v
        energy = decomposition_energy(f, u, v, params)
        support = detect_support(u, support, tau)
        if increment <= outer.tol_out * denom:
            converged = True
            break

    record(energy, 0.0, 0)
    return DecompositionResult(
        u=u,
        v=v,
        trace=IterationTrace(tuple(rows)),
        converged=converged,
        outer_iters=len(rows) - 1,
        energy_increased=increased,
        tau_supp=tau,
    )
