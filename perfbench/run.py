"""shrinkseg benchmark: one closed-loop client, one process, one workload.

    python3 perfbench/run.py --workload suite64 --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ./src.
Operations repeat over the workload's inputs until --seconds have
passed and every input has run at least once. Each output is checked;
a failed check or a raised error counts the operation as failed.

--trace 0 measures the end-to-end metrics with nothing wrapped; a
short pure-Python reference loop runs between operations (reference_s).
--trace 1 runs every operation twice on the same input, once plain and
once with the layer spans of tracing.py installed, in alternating
order; it reports per-layer metrics, requires the two outputs to be
bit-identical, and writes the spans to perfbench/out/.

Human-readable lines (every metric with unit and direction, sample
counts, environment) come first; the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}. A full record
goes to perfbench/out/result-<workload>-seed<seed>-trace<t>.json.
Metric meanings and each layer's predicted effect are in
perfbench/workloads.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

# name -> (unit, better); must agree with BENCHMARK.json
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_ref_geomean": ("ref", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "js_min": ("ratio", "higher"),
    "energy_final": ("objective", "lower"),
}
# printed and recorded beside END_TO_END, but too dependent on the
# host's speed drift or on the seed's noise to gate on (see workloads.json)
REPORTED = {
    "op_s_geomean": ("s", "lower"),
    "op_s_p50": ("s", "lower"),
    "mpix_per_s": ("Mpix/s", "higher"),
    "cv_max": ("ratio", "lower"),
}
PER_LAYER = {
    "admm.busy_s": ("s", "lower"),
    "admm.solve_uv_s": ("s", "lower"),
    "admm.self_s": ("s", "lower"),
    "admm.ms_per_iter": ("ms", "lower"),
    "admm.inner_iters": ("count", "lower"),
    "admm.capped_solves": ("count", "lower"),
    "admm.capped_frac": ("ratio", "lower"),
    "grid.grad_s": ("s", "lower"),
    "decompose.outer_iters": ("count", "lower"),
    "decompose.self_s": ("s", "lower"),
    "support.project_s": ("s", "lower"),
    "support.detect_s": ("s", "lower"),
    "support.final_active": ("count", "lower"),
    "energy.busy_s": ("s", "lower"),
    "threshold.kmeans_s": ("s", "lower"),
    "threshold.distinct_values": ("count", "lower"),
    "imgio.read_s": ("s", "lower"),
    "imgio.write_s": ("s", "lower"),
    "imgio.bytes_read": ("B", "lower"),
    "imgio.bytes_written": ("B", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.covered_frac": ("ratio", "higher"),
}
SETUP_REPEATS = 5
REF_BLOCKS = 5
REF_LOOP = 60_000  # about 5 ms of bytecode per block
WORKLOADS = ("suite64", "cli_stage2")


def _import_package():
    """Import shrinkseg from this checkout's src, refusing any other copy."""
    init = ROOT / "src" / "shrinkseg" / "__init__.py"
    fixture = ROOT / "tests" / "fixtures" / "acceptance.json"
    for path in (init, fixture):
        if not path.is_file():
            raise FileNotFoundError(f"benchmark needs {path.relative_to(ROOT)}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import shrinkseg

    if Path(shrinkseg.__file__).resolve() != init.resolve():
        raise ImportError(f"shrinkseg imported from {shrinkseg.__file__}")


def measure_setup(repeats: int = SETUP_REPEATS) -> list[float]:
    """Seconds to import shrinkseg.cli in fresh interpreters, one at a time.

    One untimed import first compiles the bytecode, which a user pays
    once per install, not per call.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    code = (
        "import time; t = time.perf_counter(); import shrinkseg.cli; "
        "print(time.perf_counter() - t, shrinkseg.cli.__file__)"
    )
    times = []
    for i in range(repeats + 1):
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        seconds, where = done.stdout.split()
        if Path(where).resolve().parent != (ROOT / "src" / "shrinkseg").resolve():
            raise ImportError(f"fresh interpreter imported {where}")
        if i:
            times.append(float(seconds))
    return times


def _read(path: str) -> str:
    try:
        with open(path, encoding="ascii", errors="replace") as handle:
            return handle.read().strip()
    except OSError:
        return ""


def environment() -> dict:
    """Machine and library facts that bear on the timings."""
    import numpy
    import scipy

    model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else ():
        if _read(str(index / "type")) != "Instruction":
            caches[f"L{_read(str(index / 'level'))}"] = _read(str(index / "size"))
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "L2": caches.get("L2"),
        "L3": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in threads},
    }


def reference_s() -> float:
    """Median time of a fixed pure-Python loop: the machine's speed now.

    On a shared host the speed of the whole machine drifts by 10-35%
    from minute to minute, and operation times follow it. Timing this
    loop just before and after each operation and dividing it out
    halves the run-to-run spread of operations a few seconds long that
    are bound by interpreter overhead, as both workloads are. The loop
    touches neither shrinkseg nor numpy, so no change to the program
    can move it.
    """
    times = []
    for _ in range(REF_BLOCKS):
        start = time.perf_counter()
        x = 0
        for i in range(REF_LOOP):
            x += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Runner:
    """Closed loop over a workload's operations, with output checks."""

    def __init__(self, ops):
        self.ops = ops
        self.first_digest: dict[str, bytes] = {}
        self.records: list[dict] = []

    @staticmethod
    def _execute(op, run):
        """Time run(); return (wall seconds, output, digest, error).

        The digest is taken at once, before another run of the same
        operation can overwrite the files it wrote.
        """
        start = time.perf_counter()
        try:
            out = run()
        except Exception:
            return time.perf_counter() - start, None, None, traceback.format_exc()
        wall = time.perf_counter() - start
        try:
            return wall, out, op.digest(out), None
        except Exception:
            return wall, out, None, traceback.format_exc()

    def _record(self, op, out, digest, error, **walls) -> None:
        """Check one output; a repeat of an input must match its first digest."""
        record = {"key": op.key, "pixels": op.pixels, **walls}
        if error is None:
            try:
                record.update(op.check(out))
                if self.first_digest.setdefault(op.key, digest) != digest:
                    raise RuntimeError("output differs from an earlier run on the same input")
            except Exception:
                error = traceback.format_exc()
        record["error"] = error
        if error is not None:
            print(f"operation {op.key} failed:\n{error}", file=sys.stderr)
        self.records.append(record)

    def untraced(self, seconds: float) -> None:
        """Each operation is bracketed by reference timings."""
        start = time.perf_counter()
        i = 0
        before = reference_s()
        while i < len(self.ops) or time.perf_counter() - start < seconds:
            op = self.ops[i % len(self.ops)]
            wall, out, digest, error = self._execute(op, op.run)
            after = reference_s()
            self._record(op, out, digest, error, wall=wall, ref=(before + after) / 2)
            before = after
            i += 1

    def traced(self, seconds: float, tracer) -> None:
        """Each operation runs plain and traced; the outputs must agree."""
        start = time.perf_counter()
        i = 0
        while i == 0 or time.perf_counter() - start < seconds:
            op = self.ops[i % len(self.ops)]

            def run_traced(op=op, i=i):
                tracer.install(i)
                try:
                    with tracer.span("op"):
                        return op.run()
                finally:
                    tracer.restore()

            nested = tracer.counts["support.nest_violations"]
            # alternate which run goes first, so warm caches favour neither
            order = (False, True) if i % 2 == 0 else (True, False)
            runs = {t: self._execute(op, run_traced if t else op.run) for t in order}
            wall, _, digest, error = runs[False]
            wall_traced, out, digest_traced, error_traced = runs[True]
            error = error or error_traced
            if error is None and tracer.counts["support.nest_violations"] != nested:
                error = "support sets not nested"
            if error is None and digest_traced != digest:
                error = "traced output differs from untraced output"
            self._record(op, out, digest, error, wall=wall, wall_traced=wall_traced)
            i += 1


def end_to_end(records: list[dict], setup: list[float]) -> tuple[dict, dict]:
    """(gated metrics, reported metrics) of an untraced run.

    Timings are taken per input first (median over its repeats), then
    across inputs, so the mix of inputs does not depend on how many
    operations fit in the run. Across inputs the geometric mean is
    gated: when a seed moves one phantom's iteration count, the median
    of twelve phantom times can jump across a gap between them. The
    gated time is divided by the reference loop timed around each
    operation (see reference_s); raw seconds are reported beside it.
    """
    ok = [r for r in records if r["error"] is None]
    walls: dict[str, list[float]] = {}
    ratios: dict[str, list[float]] = {}
    pixels: dict[str, int] = {}
    for r in records:
        walls.setdefault(r["key"], []).append(r["wall"])
        ratios.setdefault(r["key"], []).append(r["wall"] / r["ref"])
        pixels[r["key"]] = r["pixels"]
    wall = {k: statistics.median(v) for k, v in walls.items()}
    ratio = [statistics.median(v) for v in ratios.values()]
    energies = {r["key"]: r["energy"] for r in ok if "energy" in r}
    gated = {
        "setup_s": statistics.median(setup),
        "op_ref_geomean": statistics.geometric_mean(ratio),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "js_min": min((r["js_min"] for r in ok if "js_min" in r), default=0.0),
        "energy_final": sum(energies.values()),
    }
    reported = {
        "op_s_geomean": statistics.geometric_mean(wall.values()),
        "op_s_p50": statistics.median(wall.values()),
        "mpix_per_s": sum(pixels.values()) / sum(wall.values()) / 1e6,
        "cv_max": max((r["cv_max"] for r in ok if "cv_max" in r), default=0.0),
    }
    return gated, reported


def per_layer(records: list[dict], tracer) -> dict:
    from tracing import COVERING, span_times

    busy, own = span_times(tracer.spans)
    counts = tracer.counts
    ops = len(records)
    solves = counts["admm.solves"]
    iters = counts["admm.inner_iters"]
    return {
        "admm.busy_s": busy["admm"] / ops,
        "admm.solve_uv_s": busy["admm.solve_uv"] / ops,
        "admm.self_s": own["admm"] / ops,
        "admm.ms_per_iter": 1e3 * busy["admm"] / iters if iters else 0.0,
        "admm.inner_iters": iters / ops,
        "admm.capped_solves": counts["admm.capped_solves"] / ops,
        "admm.capped_frac": counts["admm.capped_solves"] / solves if solves else 0.0,
        "grid.grad_s": busy["grid.grad"] / ops,
        "decompose.outer_iters": counts["decompose.outer_iters"] / ops,
        "decompose.self_s": own["decompose"] / ops,
        "support.project_s": busy["support.project"] / ops,
        "support.detect_s": busy["support.detect"] / ops,
        "support.final_active": counts["support.final_active"] / ops,
        "energy.busy_s": busy["energy"] / ops,
        "threshold.kmeans_s": busy["threshold.kmeans"] / ops,
        "threshold.distinct_values": counts["threshold.distinct_values"] / ops,
        "imgio.read_s": busy["imgio.read"] / ops,
        "imgio.write_s": busy["imgio.write"] / ops,
        "imgio.bytes_read": counts["imgio.bytes_read"] / ops,
        "imgio.bytes_written": counts["imgio.bytes_written"] / ops,
        "cli.self_s": own["cli"] / ops,
        "trace.overhead_s": sum(r["wall_traced"] - r["wall"] for r in records) / ops,
        "trace.covered_frac": sum(busy[name] for name in COVERING) / busy["op"],
    }


def bench(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload and return the full result record.

    tiny shrinks every input and iteration cap so the self-test runs
    in seconds; its numbers mean nothing.
    """
    import workloads
    from tracing import Tracer

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    try:
        setup = [] if trace else measure_setup(1 if tiny else SETUP_REPEATS)
        ops = workloads.build(workload, ROOT, seed, workdir, tiny)
        runner = Runner(ops)
        if trace:
            tracer = Tracer()
            runner.traced(seconds, tracer)
            tracer.dump(OUT / f"spans-{workload}-seed{seed}.json")
            values, table = per_layer(runner.records, tracer), PER_LAYER
            reported = {}
        else:
            runner.untraced(seconds)
            (values, reported), table = end_to_end(runner.records, setup), END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(r["error"] is not None for r in runner.records)
    attempted = len(runner.records)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "samples": {k: sum(r["key"] == k for r in runner.records) for k in
                    dict.fromkeys(op.key for op in ops)},
        "setup_samples": setup,
        "operations": [
            {k: r[k] for k in ("key", "wall", "ref", "wall_traced", "error") if k in r}
            for r in runner.records
        ],
        "metrics": {
            name: {"value": values[name], "unit": unit, "better": better}
            for name, (unit, better) in table.items()
        },
        "reported": {
            name: {"value": reported[name], "unit": unit, "better": better}
            for name, (unit, better) in REPORTED.items()
            if name in reported
        },
        "array_bytes": workloads.computed_bytes(workload, ops),
        "environment": environment(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="shrinkseg benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be nonnegative")

    try:
        _import_package()
    except (ImportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)

    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
          f"{result['attempted']} operations, {result['failed']} failed "
          f"(failed_frac {result['failed_frac']:.4f}), samples {result['samples']}")
    for name, m in result["metrics"].items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']} ({m['better']} is better)")
    for name, m in result["reported"].items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']} ({m['better']} is better; not gated)")
    print(f"  array bytes {json.dumps(result['array_bytes'])}")
    print(f"  environment {json.dumps(result['environment'])}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
