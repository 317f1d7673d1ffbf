"""Time this tree against a parent checkout, alternating in one process.

Copies the parent checkout's src/shrinkseg into a temporary directory
under the package name shrinkseg_parent (its imports are relative, so
the copy stands alone) and imports it beside this tree's shrinkseg.
Each tree builds every chosen target's operation from its own package,
untimed. One untimed run of each tree then fills their caches and gives
the outputs that are compared; tracemalloc traces it for its peak. Each
round runs every operation on both trees, the tree that goes first
alternating from round to round.

Targets (--only names one or more; the default is the 12 suite64 ones):

  two_phase_s0_b0, ...  a suite64 phantom of tests/fixtures/acceptance.json
                        through log-domain decompose, exponentiate and
                        segment at the fixture's solver settings (the
                        acceptance settings), as perfbench runs it
  phantom{n}            the same on the scripts/phantom_report.py phantom,
                        n = 64, 128, 256 or 512
  phantom{n}_defaults   the same at the settings `shrinkseg run` uses
                        with no config
  sweeps{n}_pass1       one admm_solve of exactly 200 sweeps (tol_in=0) on
                        decompose's first pass of phantom{n}, where nearly
                        every pixel is active
  sweeps{n}_pass2       the same on its second pass, on the support the
                        first pass leaves at the acceptance settings, where
                        most pixels are frozen
  stage2_read_float, stage2_read_labels, stage2_write_labels,
  stage2_kmeans_k2, stage2_kmeans_k3, stage2_kmeans_k5
                        the stage-two layers of the segment and metrics
                        commands (read_float_grid, read_labels,
                        write_labels, kmeans_1d at K) on the n=256
                        cli_stage2 phantom of perfbench/workloads.json

--seed N shifts every target's noise seed by N, as perfbench shifts them.

Prints, per target, the median ms of each tree over the rounds, their
ratio (this tree over the parent), the traced peak MB of each tree's
untimed run and their ratio, and the rounds this tree won, then the
geometric mean of the time ratios. Then it names every target whose work
differs between the trees (a pipeline's sweeps, outer passes, reduced
passes, final support and labels; a sweep solve's sweeps and u and v
bytes; the values stage two read, wrote or clustered), with the largest
relative difference of the pipelines' final energies.

    PYTHONPATH=src python scripts/ab_suite.py --parent PATH [--seed N]
        [--rounds R] [--only NAME [NAME ...]]

PATH is the root of a checkout of the parent commit (made with git
clone or git archive); giving this repository's root times the tree
against itself. To time solves with Anderson mixing against solves
without it, give as PATH a copy of this tree whose admm._MIX_EVERY
exceeds maxit_in, and run the phantom targets.
"""

import argparse
import contextlib
import importlib
import json
import math
import os
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
import warnings
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

import shrinkseg
from fixture_work import FIXTURE, fixture_problem, make_phantom
from phantom_report import build_spec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALIAS = "shrinkseg_parent"
SIZES = (64, 128, 256, 512)
SWEEPS = 200  # per sweep-target solve
STAGE2_LAYERS = ("read_float", "read_labels", "write_labels",
                 "kmeans_k2", "kmeans_k3", "kmeans_k5")


@contextlib.contextmanager
def parent_package(parent_root, scratch):
    """The parent checkout's package, copied into the directory scratch
    and imported as ALIAS; it leaves sys.path and sys.modules on exit."""
    shutil.copytree(os.path.join(parent_root, "src", "shrinkseg"), os.path.join(scratch, ALIAS),
                    ignore=shutil.ignore_patterns("__pycache__"))
    sys.path.insert(0, scratch)
    try:
        yield importlib.import_module(ALIAS)
    finally:
        sys.path.remove(scratch)
        for name in [m for m in sys.modules if m == ALIAS or m.startswith(ALIAS + ".")]:
            del sys.modules[name]


def pipeline_work(out):
    """What the trees must agree on, and the final energy."""
    result, labels = out
    return {
        "sweeps": int(result.trace.column("inner_iters").sum()),
        "passes": result.outer_iters,
        "reduced": result.reduced_solves,
        "support": result.trace[-1].support_size,
        "labels": labels.tobytes(),
    }, result.trace[-1].energy


def pipeline(entry, solver, seed):
    """A suite64 operation on a fixture entry: log-domain decompose,
    exponentiate, segment."""
    def build(pkg, scratch):
        g, model, outer, admm = fixture_problem(pkg, entry, solver, seed)

        def run():
            result = pkg.decompose(g, model, outer, admm)
            return result, pkg.segment(pkg.imgio.from_log_domain(result.u), entry["k"]).labels

        return run, pipeline_work
    return build


def sweep_work(out):
    return {"sweeps": out.iters, "u": out.u.tobytes(), "v": out.v.tobytes()}, None


def sweep_solve(entry, solver, seed, second):
    """One admm_solve of SWEEPS sweeps on decompose's first pass of a
    fixture entry, or on its second pass if second."""
    def build(pkg, scratch):
        g, model, outer, admm = fixture_problem(pkg, entry, solver, seed)
        u, v = g, np.zeros_like(g)
        norms = pkg.grad_norms(pkg.grad(g))
        support = pkg.initial_support(norms, outer.tau_supp)
        if second:
            first = pkg.decompose(g, model, replace(outer, maxit_out=1), admm)
            u, v = first.u, first.v
            norms = pkg.grad_norms(pkg.grad(u))
            support = pkg.detect_support(norms, support, outer.tau_supp)
        weights = np.zeros_like(g)
        weights[support.active] = model.slope(norms[support.active])
        fixed = replace(admm, tol_in=0.0, maxit_in=SWEEPS)
        return partial(pkg.admm_solve, g, u, v, weights, support, model, outer.rho, fixed), sweep_work
    return build


def array_work(out):
    return {"values": out.tobytes()}, None


def stage2(layer, spec, seed):
    """One stage-two layer on the phantom of spec."""
    def build(pkg, scratch):
        phantom = make_phantom(pkg, spec, seed)
        io = pkg.imgio
        path = Path(tempfile.mkdtemp(dir=scratch), "grid.csv")
        if layer == "write_labels":
            def written(_):
                return {"file": path.read_bytes()}, None
            return partial(io.write_labels, phantom.truth_labels, path), written
        if layer == "read_float":
            io.write_float_grid(phantom.f, path)
            return partial(io.read_float_grid, path), array_work
        if layer == "read_labels":
            io.write_labels(phantom.truth_labels, path)
            return partial(io.read_labels, path), array_work
        return partial(pkg.kmeans_1d, phantom.f, int(layer.removeprefix("kmeans_k"))), array_work
    return build


def targets(fixture, seed):
    """Every target's name and build: build(pkg, scratch) makes the
    operation run by the package pkg, writing any files under scratch,
    and returns it with work, which maps its output to what the trees
    must agree on and the final energy (None if it has none)."""
    solver = fixture["solver"]
    table = {entry["name"]: pipeline(entry, solver, seed) for entry in fixture["suite"]}
    for n in SIZES:
        spec = shrinkseg.imgio.phantom_spec_to_dict(build_spec(n, sigma=0.05, bias_amp=0.4, seed=7))
        entry = {"spec": spec, "alpha": 0.5, "beta": 1000.0, "k": 2}
        table[f"phantom{n}"] = pipeline(entry, solver, seed)
        table[f"phantom{n}_defaults"] = pipeline(entry, None, seed)
        table[f"sweeps{n}_pass1"] = sweep_solve(entry, solver, seed, second=False)
        table[f"sweeps{n}_pass2"] = sweep_solve(entry, solver, seed, second=True)
    with open(os.path.join(ROOT, "perfbench", "workloads.json"), encoding="utf-8") as handle:
        stage2_spec = json.load(handle)["workloads"]["cli_stage2"]["spec"]
    for layer in STAGE2_LAYERS:
        table[f"stage2_{layer}"] = stage2(layer, stage2_spec, seed)
    return table


def timed(run):
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def traced(run, work):
    """Call run once under tracemalloc: the work of its output and the
    peak bytes traced during the call."""
    tracemalloc.start()
    try:
        out = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return work(out), peak


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, metavar="PATH",
                        help="root of the parent checkout")
    parser.add_argument("--seed", type=int, default=0, metavar="N")
    parser.add_argument("--rounds", type=int, default=7, metavar="R")
    parser.add_argument("--only", nargs="+", metavar="NAME",
                        help="run these targets (default: the suite64 phantoms)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if not os.path.isfile(os.path.join(args.parent, "src", "shrinkseg", "__init__.py")):
        parser.error(f"no src/shrinkseg package under {args.parent!r}")

    with open(FIXTURE, encoding="utf-8") as handle:
        fixture = json.load(handle)
    table = targets(fixture, args.seed)
    names = args.only or [entry["name"] for entry in fixture["suite"]]
    unknown = [name for name in names if name not in table]
    if unknown:
        parser.error(f"unknown targets {unknown}; the targets are: {' '.join(table)}")

    with (tempfile.TemporaryDirectory(prefix="ab_suite_") as scratch,
          parent_package(args.parent, scratch) as parent,
          warnings.catch_warnings()):
        warnings.simplefilter("ignore", RuntimeWarning)
        ops = [(table[name](parent, scratch), table[name](shrinkseg, scratch)) for name in names]
        outputs = [(traced(*old), traced(*new)) for old, new in ops]
        times = [([], []) for _ in ops]
        for round_ in range(args.rounds):
            for ((old, _), (new, _)), (old_s, new_s) in zip(ops, times):
                if round_ % 2:
                    new_s.append(timed(new))
                    old_s.append(timed(old))
                else:
                    old_s.append(timed(old))
                    new_s.append(timed(new))

    print(f"{'target':<28} {'parent_ms':>9} {'tree_ms':>9} {'ratio':>6} "
          f"{'parent_mb':>9} {'tree_mb':>9} {'mem':>6} {'wins':>7}")
    ratios = []
    for name, (old_s, new_s), ((_, old_b), (_, new_b)) in zip(names, times, outputs):
        old_ms, new_ms = 1e3 * statistics.median(old_s), 1e3 * statistics.median(new_s)
        ratios.append(new_ms / old_ms)
        wins = sum(new < old for old, new in zip(old_s, new_s))
        print(f"{name:<28} {old_ms:>9.2f} {new_ms:>9.2f} {ratios[-1]:>6.3f} "
              f"{old_b / 1e6:>9.2f} {new_b / 1e6:>9.2f} {new_b / old_b:>6.3f} "
              f"{wins:>3}/{args.rounds:<3}")
    geomean = math.exp(sum(map(math.log, ratios)) / len(ratios))
    print(f"geomean ratio {geomean:.3f} over {len(names)} targets, "
          f"{args.rounds} rounds, seed {args.seed}")

    differ = 0
    for name, (((old, _), _), ((new, _), _)) in zip(names, outputs):
        keys = [key for key in old if old[key] != new[key]]
        if keys:
            differ += 1
            shown = ", ".join(key if isinstance(old[key], bytes) else f"{key} {old[key]} -> {new[key]}"
                              for key in keys)
            print(f"differs: {name}: {shown}")
    gap = max((abs(new_e - old_e) / abs(old_e)
               for ((_, old_e), _), ((_, new_e), _) in outputs if old_e is not None),
              default=0.0)
    print(f"work differs on {differ} of {len(names)} targets; "
          f"largest relative energy difference {gap:.1e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
