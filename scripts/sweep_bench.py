"""Time one ADMM sweep at a fixed sweep count.

Runs admm_solve with tol_in=0, so every solve makes exactly --sweeps
sweeps, on two inner solves of the phantom_report phantom (noisy,
linearly biased, two phases) at each size, and prints the median
milliseconds per sweep over --repeats solves. Pass 1 is decompose's
first inner solve, where nearly every pixel is active. Pass 2 is its
second, on the support left after the first pass solved at the
acceptance settings, where most pixels are frozen. The sweep count is
fixed, so the per-sweep cost compares across versions of the solver
even when their stopping tests end a converging solve a few sweeps
apart.

--to-tol TOL instead solves both passes to the relative tolerance TOL
and prints the sweeps and milliseconds each needs, with and without
the solver's periodic Anderson mixing: mixed and unmixed solves
alternate in one process (the unmixed ones patch the private mixing
period past the sweep cap), so host drift between processes does not
blur a per-sweep gain. It prints the median ms of each, their ratio and
how many of the --repeats rounds the mixed solve won.

    PYTHONPATH=src python scripts/sweep_bench.py [--sizes 64 128 256]
        [--sweeps 200] [--repeats 5] [--to-tol TOL]
"""

import argparse
import statistics
import time
import warnings
from dataclasses import replace

import numpy as np

from phantom_report import build_spec
from shrinkseg import admm as admm_module
from shrinkseg import (
    AdmmParams,
    ModelParams,
    OuterParams,
    admm_solve,
    decompose,
    detect_support,
    generate,
    grad,
    grad_norms,
    initial_support,
)
from shrinkseg.imgio import to_log_domain


def first_solve_args(n, sweeps):
    """admm_solve arguments of decompose's first outer pass at size n."""
    phantom = generate(build_spec(n, sigma=0.05, bias_amp=0.4, seed=7))
    f = to_log_domain(phantom.f / phantom.f.max())
    params = ModelParams(alpha=0.5, beta=1000.0)
    outer = OuterParams(tau_supp=1e-3)
    norms = grad_norms(grad(f))
    support = initial_support(norms, outer.tau_supp)
    weights = np.zeros_like(f)
    weights[support.active] = params.slope(norms[support.active])
    admm = AdmmParams(r=10.0, tol_in=0.0, maxit_in=sweeps)
    return f, f, np.zeros_like(f), weights, support, params, outer.rho, admm


def second_solve_args(n, sweeps):
    """admm_solve arguments of decompose's second outer pass at size n."""
    f, _, _, _, support, params, rho, admm = first_solve_args(n, sweeps)
    outer = OuterParams(tau_supp=1e-3, maxit_out=1)
    with warnings.catch_warnings():  # one pass on purpose: never converged
        warnings.simplefilter("ignore", RuntimeWarning)
        first = decompose(f, params, outer, AdmmParams(r=10.0, tol_in=1e-8, maxit_in=500))
    norms = grad_norms(grad(first.u))
    support = detect_support(norms, support, outer.tau_supp)
    weights = np.zeros_like(f)
    weights[support.active] = params.slope(norms[support.active])
    return f, first.u, first.v, weights, support, params, rho, admm


def timed_solve(solve_args):
    """(sweeps, ms) of one admm_solve call."""
    start = time.perf_counter()
    result = admm_solve(*solve_args)
    return result.iters, (time.perf_counter() - start) * 1e3


def to_tol(sizes, tol, repeats):
    """Sweeps and ms to tol per pass, mixed against unmixed, alternating."""
    period = admm_module._MIX_EVERY
    cap = 10_000
    print(f"{'n':>5} {'pass':>4} {'sweeps':>6} {'unmixed':>7} {'ms':>8} {'unmixed':>8} "
          f"{'ratio':>6} {'wins':>5}  (to tol {tol:g}, {repeats} rounds)")
    try:
        for n in sizes:
            for k, make_args in enumerate((first_solve_args, second_solve_args), 1):
                solve_args = list(make_args(n, cap))
                solve_args[7] = replace(solve_args[7], tol_in=tol)
                times = {period: [], cap + 1: []}
                sweeps = {}
                for round_ in range(repeats + 1):  # round 0 warms the caches
                    order = (period, cap + 1) if round_ % 2 else (cap + 1, period)
                    for every in order:
                        admm_module._MIX_EVERY = every
                        sweeps[every], ms = timed_solve(solve_args)
                        if round_:
                            times[every].append(ms)
                mixed, plain = times[period], times[cap + 1]
                wins = sum(a < b for a, b in zip(mixed, plain))
                ratio = statistics.median(mixed) / statistics.median(plain)
                print(f"{n:>5} {k:>4} {sweeps[period]:>6} {sweeps[cap + 1]:>7} "
                      f"{statistics.median(mixed):8.3f} {statistics.median(plain):8.3f} "
                      f"{ratio:6.3f} {wins:>2}/{repeats}")
    finally:
        admm_module._MIX_EVERY = period


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[64, 128, 256])
    parser.add_argument("--sweeps", type=int, default=200)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--to-tol", type=float, metavar="TOL",
                        help="time solves to TOL, mixed against unmixed")
    args = parser.parse_args(argv)
    if args.to_tol is not None:
        to_tol(args.sizes, args.to_tol, args.repeats)
        return

    print(f"{'n':>5} {'pass':>4} {'active':>7} {'ms/sweep':>9} {'min':>8} {'max':>8}  "
          f"({args.sweeps} sweeps, {args.repeats} repeats)")
    for n in args.sizes:
        for k, make_args in enumerate((first_solve_args, second_solve_args), 1):
            solve_args = make_args(n, args.sweeps)
            active = solve_args[4].size / (n * n)
            admm_solve(*solve_args)  # warm the FFT plan cache and allocator
            per_sweep = []
            for _ in range(args.repeats):
                start = time.perf_counter()
                result = admm_solve(*solve_args)
                per_sweep.append((time.perf_counter() - start) * 1e3 / result.iters)
            print(f"{n:>5} {k:>4} {active:7.3f} {statistics.median(per_sweep):9.4f} "
                  f"{min(per_sweep):8.4f} {max(per_sweep):8.4f}")


if __name__ == "__main__":
    main()
