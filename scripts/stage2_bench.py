"""Time the stage-two layers that the segment and metrics commands run.

Builds the cli_stage2 benchmark phantom (perfbench/workloads.json),
rescaled to --n x --n, writes its float grid and truth labels as CSV in
a temporary directory, and prints the median milliseconds over
--repeats calls of read_float_grid, read_labels, write_labels and
kmeans_1d at K = 2, 3 and 5. The noisy phantom has about n^2 distinct
values, as a corrected image does.

    PYTHONPATH=src python scripts/stage2_bench.py [--n 256] [--repeats 5]
"""

import argparse
import json
import os
import statistics
import tempfile
import time

from shrinkseg import generate, imgio
from shrinkseg.threshold import kmeans_1d

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def stage2_spec(n):
    """The cli_stage2 phantom spec with its shapes rescaled to n x n."""
    with open(os.path.join(ROOT, "perfbench", "workloads.json"), encoding="utf-8") as handle:
        spec = json.load(handle)["workloads"]["cli_stage2"]["spec"]
    scale = n / spec["n"]
    shapes = [
        {key: val if key in ("type", "phase") else int(val * scale) for key, val in shape.items()}
        for shape in spec["shapes"]
    ]
    return imgio.phantom_spec_from_dict({**spec, "n": n, "shapes": shapes})


def median_ms(call, repeats):
    call()  # warm caches and the allocator
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times), min(times), max(times)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=256)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)

    phantom = generate(stage2_spec(args.n))
    with tempfile.TemporaryDirectory() as work:
        u_csv = os.path.join(work, "u.csv")
        truth_csv = os.path.join(work, "truth.csv")
        out_csv = os.path.join(work, "out.csv")
        imgio.write_float_grid(phantom.f, u_csv)
        imgio.write_labels(phantom.truth_labels, truth_csv)
        cases = [
            ("read_float_grid", lambda: imgio.read_float_grid(u_csv)),
            ("read_labels", lambda: imgio.read_labels(truth_csv)),
            ("write_labels", lambda: imgio.write_labels(phantom.truth_labels, out_csv)),
        ]
        cases += [
            (f"kmeans_1d K={k}", lambda k=k: kmeans_1d(phantom.f, k)) for k in (2, 3, 5)
        ]
        print(f"{'layer':<16} {'ms':>9} {'min':>9} {'max':>9}  (n={args.n}, "
              f"{args.repeats} repeats)")
        for name, call in cases:
            med, low, high = median_ms(call, args.repeats)
            print(f"{name:<16} {med:9.3f} {low:9.3f} {high:9.3f}")


if __name__ == "__main__":
    main()
