"""Desk-scale demo: synthesize a biased phantom, correct and segment it.

Runs fixture_work.pipeline (the package's decompose_image in the log
domain, then segment), at the solver settings of
tests/fixtures/acceptance.json, on the two-phase phantom of
calibrate_fixtures.py. Prints the outer-iteration trace and a per-phase
quality table (Jaccard overlap with the ground truth, coefficient of
variation of the corrected image over each true region).
"""

import argparse
import sys
import time

import numpy as np

import shrinkseg
from calibrate_fixtures import two_phase_spec
from fixture_work import load_fixture, make_phantom, pipeline
from shrinkseg import cv, jaccard


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=128)
    parser.add_argument("--sigma", type=float, default=0.05)
    parser.add_argument("--bias", type=float, default=0.4)
    parser.add_argument("--alpha", type=float, default=0.5)
    parser.add_argument("--beta", type=float, default=1000.0)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    kind = "linear_ramp" if args.bias else "none"
    spec = two_phase_spec(args.n, args.sigma, args.bias, kind, args.seed)
    k = len(spec["phase_values"])
    entry = {"spec": spec, "alpha": args.alpha, "beta": args.beta, "k": k}
    phantom = make_phantom(shrinkseg, spec, 0)
    run = pipeline(shrinkseg, entry, load_fixture()["solver"], phantom)

    start = time.perf_counter()
    result, u, labels = run()
    elapsed = time.perf_counter() - start

    print(f"n={args.n} sigma={args.sigma} bias={args.bias} "
          f"alpha={args.alpha} beta={args.beta}")
    print(f"converged={result.converged} after {result.outer_iters} outer "
          f"iterations in {elapsed:.1f}s\n")

    print(" k   energy        support  min_grad/max_grad")
    for row in result.trace:
        ratio = row.min_nonzero_grad / row.max_grad if row.max_grad > 0 else np.nan
        print(f"{row.k:2d}   {row.energy:<12.6g}  {row.support_size:<7d} {ratio:.4f}")

    print("\nphase  value  jaccard  cv")
    for phase in range(1, k + 1):
        region = phantom.truth_labels == phase
        js = jaccard(labels == phase, region)
        spread = cv(u, region)
        print(f"{phase:5d}  {spec['phase_values'][phase - 1]:.2f}   {js:.4f}   {spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
