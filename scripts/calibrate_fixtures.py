"""Freeze acceptance fixtures from pilot runs.

Runs the pilot phantom batch (two families at n=64 across the noise and
bias grid, plus the two n=128 quality targets) through the acceptance
pipeline of fixture_work.py at SOLVER, checks that every run converges
with a monotone energy trace, and writes the frozen settings plus
per-run gradient-gap floors to tests/fixtures/acceptance.json.

A rerun reproduces the solver settings and every spec, weight, K and
threshold field of the file. The gap floors are not reproduced: each is
half a pilot's final gradient gap, which follows the solver's last bits,
so any change to the solver's arithmetic moves them (all 14 committed
floors differ from a rerun's, by up to 0.57% relative). ROADMAP aim 3
forbids rerunning this script to absorb such a drift; rerun it only when
the pilot geometry changes, and justify the new floors.
"""

import argparse
import json
import os
import sys
import time

import numpy as np

import shrinkseg
from fixture_work import make_phantom, pipeline
from shrinkseg import jaccard

# Solver settings shared by every acceptance run. Tighter than the
# library defaults: the energy and gap checks need the inner problem
# solved well past the default tolerance.
SOLVER = {
    "r": 10.0,
    "tol_in": 1e-8,
    "maxit_in": 500,
    "tol_out": 1e-4,
    "maxit_out": 40,
    "tau_supp": 1e-3,
}

GAP_SAFETY = 0.5  # frozen floor = pilot gap times this


def _spec(n, phase_values, shapes, sigma, bias_amp, bias_kind, seed):
    """A phantom spec in its JSON form: what acceptance.json stores and
    `shrinkseg synth` reads."""
    return {"n": n, "phase_values": phase_values, "shapes": shapes,
            "bias_amplitude": bias_amp, "bias_kind": bias_kind, "noise_sigma": sigma,
            "composition": "multiplicative", "seed": seed}


def _disk(row, col, radius, phase):
    return {"type": "disk", "row": row, "col": col, "radius": radius, "phase": phase}


def _rect(row0, col0, row1, col1, phase):
    return {"type": "rect", "row0": row0, "col0": col0, "row1": row1, "col1": col1,
            "phase": phase}


def two_phase_spec(n, sigma, bias_amp, bias_kind, seed):
    shapes = [
        _disk(n // 2, int(0.34 * n), int(0.23 * n), 2),
        _rect(int(0.16 * n), int(0.69 * n), int(0.55 * n), int(0.91 * n), 2),
    ]
    return _spec(n, [0.3, 0.8], shapes, sigma, bias_amp, bias_kind, seed)


def five_phase_spec(n, sigma, bias_amp, bias_kind, seed):
    shapes = [
        _disk(int(0.28 * n), int(0.28 * n), int(0.17 * n), 2),
        _disk(int(0.28 * n), int(0.72 * n), int(0.17 * n), 3),
        _rect(int(0.56 * n), int(0.125 * n), int(0.875 * n), int(0.44 * n), 4),
        _rect(int(0.56 * n), int(0.59 * n), int(0.875 * n), int(0.875 * n), 5),
    ]
    return _spec(n, [0.2, 0.4, 0.6, 0.8, 1.0], shapes, sigma, bias_amp, bias_kind, seed)


def fixture_entry(name, spec, alpha, beta, k):
    """A fixture entry, without its gap floor."""
    return {"name": name, "spec": spec, "alpha": alpha, "beta": beta, "k": k}


def suite_runs():
    """The n=64 batch covering the noise/bias/phase-count grid."""
    runs = []
    grid = [
        (0.0, 0.0),
        (0.0, 0.2),
        (0.0, 0.4),
        (0.02, 0.0),
        (0.02, 0.2),
        (0.02, 0.4),
        (0.05, 0.0),
        (0.05, 0.2),
        (0.05, 0.4),
    ]
    for i, (sigma, amp) in enumerate(grid):
        kind = "none" if amp == 0 else ("linear_ramp" if i % 2 else "low_freq_sinusoid")
        spec = two_phase_spec(64, sigma, amp, kind, 100 + i)
        runs.append(fixture_entry(f"two_phase_s{sigma:g}_b{amp:g}", spec, 0.5, 1000.0, 2))
    for i, (sigma, amp) in enumerate([(0.0, 0.0), (0.02, 0.2), (0.05, 0.4)]):
        kind = "none" if amp == 0 else "gaussian_bump"
        spec = five_phase_spec(64, sigma, amp, kind, 200 + i)
        runs.append(fixture_entry(f"five_phase_s{sigma:g}_b{amp:g}", spec, 0.3, 1000.0, 5))
    return runs


def quality_runs():
    """The n=128 runs with frozen quality thresholds."""
    two = two_phase_spec(128, 0.05, 0.4, "linear_ramp", 7)
    five = five_phase_spec(128, 0.02, 0.3, "gaussian_bump", 23)
    return [
        {**fixture_entry("two_phase_n128", two, 0.5, 1000.0, 2),
         "js_min": 0.98, "cv_max": 0.05, "time_limit": 60.0},
        {**fixture_entry("five_phase_n128", five, 0.15, 1000.0, 5),
         "js_min": 0.97, "cv_max": 0.05, "time_limit": 120.0},
    ]


def pilot(entry):
    """Run one entry through the acceptance pipeline at SOLVER and
    summarize the trace."""
    phantom = make_phantom(shrinkseg, entry["spec"], 0)
    run = pipeline(shrinkseg, entry, SOLVER, phantom)
    start = time.perf_counter()
    result, _, labels = run()
    elapsed = time.perf_counter() - start

    energy = result.trace.column("energy")
    support = result.trace.column("support_size")
    mono = bool(np.all(np.diff(energy) <= 1e-8 * energy[0]))
    shrinking = bool(np.all(np.diff(support) <= 0))

    truth = phantom.truth_labels
    js = min(jaccard(labels == phase, truth == phase) for phase in range(1, entry["k"] + 1))
    ratios = result.trace.column("min_nonzero_grad") / result.trace.column("max_grad")
    return {
        "converged": result.converged,
        "monotone": mono,
        "shrinking": shrinking,
        "gap": float(ratios[-1]),
        "js_min": float(js),
        "elapsed": elapsed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=os.path.join(os.path.dirname(__file__), "..", "tests", "fixtures", "acceptance.json"),
        help="where to write the fixture file",
    )
    args = parser.parse_args(argv)

    suite_entries, quality_entries = suite_runs(), quality_runs()
    ok = True
    for entry in suite_entries + quality_entries:
        summary = pilot(entry)
        ok &= summary["converged"] and summary["monotone"] and summary["shrinking"]
        ok &= summary["js_min"] >= entry.get("js_min", 0.0)
        print(
            f"{entry['name']:<24} conv={summary['converged']} mono={summary['monotone']} "
            f"gap={summary['gap']:.4f} js_min={summary['js_min']:.4f} "
            f"{summary['elapsed']:.1f}s"
        )
        entry["gap_floor"] = round(GAP_SAFETY * summary["gap"], 6)

    if not ok:
        print("pilot failed; fixture file not written", file=sys.stderr)
        return 1

    payload = {"solver": SOLVER, "suite": suite_entries, "quality": quality_entries}
    out = os.path.abspath(args.out)
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
