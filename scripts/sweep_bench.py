"""Time one ADMM sweep at a fixed sweep count.

Runs admm_solve with tol_in=0, so every solve makes exactly --sweeps
sweeps, on the first inner solve of the phantom_report phantom (noisy,
linearly biased, two phases) at each size, and prints the median
milliseconds per sweep over --repeats solves. The sweep count is fixed,
so the per-sweep cost compares across versions of the solver even when
their stopping tests end a converging solve a few sweeps apart.

    PYTHONPATH=src python scripts/sweep_bench.py [--sizes 64 128 256]
        [--sweeps 200] [--repeats 5]
"""

import argparse
import statistics
import time

import numpy as np

from phantom_report import build_spec
from shrinkseg import (
    AdmmParams,
    ModelParams,
    OuterParams,
    admm_solve,
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
    weights[support.active] = params.potential.deriv(norms[support.active])
    admm = AdmmParams(r=10.0, tol_in=0.0, maxit_in=sweeps)
    return f, f, np.zeros_like(f), weights, support, params, outer.rho, admm


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[64, 128, 256])
    parser.add_argument("--sweeps", type=int, default=200)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)

    print(f"{'n':>5} {'ms/sweep':>9} {'min':>8} {'max':>8}  ({args.sweeps} sweeps, "
          f"{args.repeats} repeats)")
    for n in args.sizes:
        solve_args = first_solve_args(n, args.sweeps)
        admm_solve(*solve_args)  # warm the FFT plan cache and allocator
        per_sweep = []
        for _ in range(args.repeats):
            start = time.perf_counter()
            result = admm_solve(*solve_args)
            per_sweep.append((time.perf_counter() - start) * 1e3 / result.iters)
        print(f"{n:>5} {statistics.median(per_sweep):9.4f} {min(per_sweep):8.4f} "
              f"{max(per_sweep):8.4f}")


if __name__ == "__main__":
    main()
