"""Outer support-shrinking loop around the splitting solver.

Starting from (u, v) = (f, f), each outer pass reweights the gradient
penalty at the current iterate, solves the resulting convex problem on
the active support, then drops pixels whose gradient fell below the
support threshold. Supports only ever shrink, which is what makes the
loop terminate with a stable zero set. Early passes are solved
inexactly, to a relative error against the step they take (H2 of
Attouch, Bolte & Svaiter 2013), and solved again exactly when they do
not descend (H1). decompose_image runs stage one on an image, in its
log domain for a multiplicative bias.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .admm import AdmmParams, admm_solve, one_blas_thread
from .energy import ModelParams, decomposition_energy
from .grid import Array, as_grid, check_count, check_fields, grad, grad_norms
from .reduced import ReducedCache, reduced_solve
from .support import detect_support, initial_support, project_to_support
from .synth import EPS_POS


@dataclass(frozen=True)
class OuterParams:
    """Proximal weight, stopping rule, and support threshold.

    tau_supp = None picks the inner tolerance tol_in times the largest
    gradient magnitude of the input, so "zero gradient" is judged
    relative to image scale, at the accuracy the inner solves reach.
    """

    rho: float = 1e-8
    tol_out: float = 1e-4
    maxit_out: int = 40
    tau_supp: float | None = None

    def __post_init__(self):
        check_fields(self, ("rho", "tol_out"), "finite and positive")
        check_count(self.maxit_out, "maxit_out", 1)
        if self.tau_supp is not None:
            check_fields(self, ("tau_supp",), "finite and nonnegative")


@dataclass(frozen=True)
class TraceRow:
    """State of one outer iterate plus the step taken from it.

    energy, support_size, min_nonzero_grad and max_grad describe the
    iterate itself; increment and inner_iters describe the move to the
    next iterate and are zero on the final row. inner_iters counts the
    sweeps of both solves when a pass was solved again at tol_in, and is
    zero for a pass that reduced_solve solved.
    max_grad is a diagnostic over all pixels and is not serialized.
    """

    k: int
    energy: float
    increment: float
    support_size: int
    min_nonzero_grad: float
    inner_iters: int
    max_grad: float


class IterationTrace(tuple):
    """The TraceRows of one run, in order."""

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(row, name) for row in self])


@dataclass(frozen=True)
class DecompositionResult:
    """Final split f ~ u + v together with the full iteration record."""

    u: Array
    v: Array
    trace: IterationTrace
    converged: bool
    energy_rises: int  # outer steps whose energy rose (see decompose)
    tau_supp: float
    capped_solves: int  # inner solves that stopped at maxit_in
    reduced_solves: int  # passes solved exactly by reduced_solve
    reduced_declines: int = 0  # reduced_solve attempts within its cap that returned None

    @property
    def outer_iters(self) -> int:
        return len(self.trace) - 1

    @property
    def energy_increased(self) -> bool:
        return self.energy_rises > 0


def _stacked_norm(a: Array, b: Array) -> float:
    return math.sqrt(float(np.vdot(a, a).real) + float(np.vdot(b, b).real))


@one_blas_thread()
def decompose(
    f: Array,
    params: ModelParams,
    outer: OuterParams | None = None,
    admm: AdmmParams | None = None,
) -> DecompositionResult:
    """Split f into a piecewise-constant part u and a smooth part v.

    Appends one trace row per outer iterate, including the final one,
    so a run with T inner solves yields T+1 rows. A step whose energy
    rises by more than 1e-8 times the energy it leaves, and by more than
    machine epsilon times the starting energy F(f, f), is counted in
    energy_rises, flagged and warned about, but does not abort the run.
    A run warns once, with the counts, when any inner solve stopped at
    maxit_in and when it ends unconverged.

    A pixel freezes once its gradient falls below tau, the resolved
    tau_supp, so outer pass k solves its inner problem only to
    tol_k = max(admm.tol_in, tau / ||(u_k, v_k)||). A pass solved looser
    than tol_in must leave the projected iterate with energy no higher
    than F(u_k, v_k) (the sufficient-decrease condition H1 of Attouch,
    Bolte & Svaiter 2013); otherwise the pass is solved again from
    (u_k, v_k) at tol_in, and that result is kept. Once a pass meets
    tol_out, every later pass runs at tol_in, so only a pass at tol_in
    that leaves the support as it was can end the run. When
    tau / ||(u_k, v_k)|| <= tol_in, as for the default tau_supp on
    ordinary images, every pass runs at tol_in and H1 is not checked.
    A loose pass also stops once its (u, v) update is a small fraction
    of its distance from (u_k, v_k) (admm_solve's relative stop, the
    relative-error condition H2 of the same paper): a first pass that
    moves far ends coarse, while the small steps of late passes are
    still solved tightly.

    Both solvers read one ReducedCache, the run's RunState, made once
    for the run: admm_solve as its state, reduced_solve as its cache.
    From the second pass on, reduced_solve gets each pass first. When
    the support leaves few enough tie components it may return the
    pass's exact minimizer: that pass counts as solved at tol_in, needs
    neither H1 nor the projection, adds no sweeps to inner_iters and is
    counted in reduced_solves; the attempts within its cap that return
    None are counted in reduced_declines. Any other pass goes to
    admm_solve as above, starting from the scaled dual that the run's
    last admm_solve ended with (zero duals on the first pass):
    successive passes solve nearly the same problem, so a warm dual
    saves sweeps. BLAS runs on one thread (one_blas_thread): u and v do
    not depend on its thread count.
    """
    f = as_grid(f, "f")
    outer = outer or OuterParams()
    admm = admm or AdmmParams()

    u = f.copy()
    v = f.copy()
    norms = grad_norms(grad(u))  # of the current iterate: support, weights and trace
    tau = admm.tol_in * float(norms.max()) if outer.tau_supp is None else outer.tau_supp
    support = initial_support(norms, tau)
    state = ReducedCache(f, params, outer.rho, admm.r)  # this run's solves share it
    energy = decomposition_energy(f, u, v, params, norms, state.f_hat)  # v is f
    # a rise below eps * F(f, f) is rounding, even from an energy of 0
    noise = np.finfo(np.float64).eps * energy

    rows: list[TraceRow] = []
    converged = False
    rises = 0
    capped = 0
    exact = False  # set once a pass meets tol_out: later passes run at tol_in
    prev_energy = math.inf
    lam = None  # the scaled dual of the last admm_solve, the next one's start

    def record(energy: float, increment: float, inner_iters: int) -> None:
        nonlocal prev_energy, rises
        if energy > prev_energy + max(1e-8 * abs(prev_energy), noise):
            rises += 1
            warnings.warn(
                f"energy increased at outer iteration {len(rows)}: "
                f"{prev_energy:.6e} -> {energy:.6e}",
                RuntimeWarning,
                stacklevel=4,
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
        weights[support.active] = params.slope(norms[support.active])
        denom = _stacked_norm(u, v)
        # accuracy below tau cannot change which pixels freeze next
        tol = admm.tol_in if exact or denom == 0 else max(admm.tol_in, tau / denom)

        inner_iters = 0
        # the first pass always runs admm_solve: perfbench's tracer test
        # expects an admm span from every op, noise-free ones included;
        # rebinding inner lets the last pass's arrays go before the attempt
        inner = reduced = reduced_solve(u, weights, support, state) if rows else None
        if reduced is not None:  # the exact minimizer: the loop below ends at once
            tol = admm.tol_in
        while True:  # an H1 re-solve starts from the same dual
            inner = reduced or admm_solve(
                f, u, v, weights, support, params, outer.rho, admm,
                tol=tol, lam0=lam, state=state,
            )
            inner_iters += inner.iters
            capped += int(inner.iters >= admm.maxit_in)
            # restore exact feasibility (reduced_solve's u has it): the
            # square-root penalty has unbounded slope at zero, so even tiny
            # leftover gradients on the frozen set would leak into the energy
            u_next = inner.u if reduced else project_to_support(inner.u, support)
            next_norms = grad_norms(grad(u_next))
            next_energy = decomposition_energy(f, u_next, inner.v, params, next_norms, inner.v_hat)
            if tol <= admm.tol_in or next_energy <= energy:
                break
            tol = admm.tol_in  # H1 failed: solve the pass again, exactly
        lam = lam if reduced else inner.lam
        increment = _stacked_norm(u_next - u, inner.v - v)
        record(energy, increment, inner_iters)

        u, v, energy, norms = u_next, inner.v, next_energy, next_norms
        shrunk = detect_support(norms, support, tau)
        settled = shrunk is support
        support = shrunk
        if increment <= outer.tol_out * denom:
            if tol <= admm.tol_in and settled:
                converged = True
                break
            exact = True

    record(energy, 0.0, 0)
    if capped:
        warnings.warn(
            f"{capped} inner solves stopped at maxit_in={admm.maxit_in}",
            RuntimeWarning,
            stacklevel=3,
        )
    if not converged:
        warnings.warn(
            f"decompose stopped unconverged after {len(rows) - 1} outer iterations "
            f"(maxit_out={outer.maxit_out})",
            RuntimeWarning,
            stacklevel=3,
        )
    return DecompositionResult(
        u=u,
        v=v,
        trace=IterationTrace(rows),
        converged=converged,
        energy_rises=rises,
        tau_supp=tau,
        capped_solves=capped,
        reduced_solves=state.solves,
        reduced_declines=state.declines,
    )


def to_log_domain(f: Array) -> Array:
    """The natural log of f, which must lie in (0, 1]: values in [0,
    EPS_POS), such as a PGM's zeros, are raised to EPS_POS, and values
    below 0 or above 1 rejected."""
    f = as_grid(f, "f")
    low, top = float(f.min()), float(f.max())
    if low < 0.0 or top > 1.0:
        end, value = ("minimum", low) if low < 0.0 else ("maximum", top)
        raise ValueError(f"log_domain (--log-domain) needs values in (0, 1], got a {end} "
                         f"of {value!r}; scale the image into (0, 1] first")
    return np.log(np.maximum(f, EPS_POS))


def from_log_domain(g: Array) -> Array:
    return np.exp(as_grid(g, "g"))


def decompose_image(
    f: Array,
    params: ModelParams,
    outer: OuterParams | None = None,
    admm: AdmmParams | None = None,
    log_domain: bool = False,
) -> tuple[DecompositionResult, Array, Array]:
    """Stage one on an image: (result, u, v) with u and v in f's units.

    With log_domain, decompose runs on to_log_domain(f), so f must lie in
    (0, 1], and u and v are its result exponentiated (f ~ u * v). Labels
    are left to the caller's segment(u, k), which fails on a flat u.
    """
    result = decompose(to_log_domain(f) if log_domain else f, params, outer, admm)
    if not log_domain:
        return result, result.u, result.v
    return result, from_log_domain(result.u), from_log_domain(result.v)
