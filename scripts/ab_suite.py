"""Time this tree against a parent checkout, alternating in one process.

Copies the parent checkout's src/shrinkseg into a temporary directory
under the package name shrinkseg_parent (its imports are relative, so
the copy stands alone) and imports it beside this tree's shrinkseg.
Each tree builds every chosen target's operation from its own package,
untimed, and runs each once, untimed and untraced: that run fills the
tree's caches and the process's one-time allocations, which the trees
share and which would otherwise land in whichever tree's trace came
first. One more untimed run of each tree gives the outputs that are
compared; tracemalloc traces it for its peak, from a collected heap, as
garbage the run before it left made the peak of the tree traced second
read up to 0.4% off. Each round runs every operation on both trees, the
tree that goes first alternating from round to round.

Targets (--only names one or more; the default is the 12 suite64 ones):

  two_phase_s0_b0, ...  a suite64 phantom of tests/fixtures/acceptance.json
                        through fixture_work.pipeline (the package's
                        decompose_image in the log domain, then segment)
                        at the fixture's solver settings (the acceptance
                        settings), as perfbench runs it
  phantom{n}            the same on the scripts/phantom_report.py phantom
                        (calibrate_fixtures.two_phase_spec, which like
                        five_phase_spec returns the spec as the JSON dict
                        that acceptance.json stores), n = 64, 128, 256 or
                        512
  phantom{n}_defaults   the same at the settings `shrinkseg run` uses
                        with no config
  ramp128               the same at the acceptance settings on
                        calibrate_fixtures.five_phase_spec(128, 0.05, 0.7,
                        "linear_ramp", 7) at alpha 0.3, beta 1000, K = 5
  noisy128              the same on the five_phase_n128 quality entry of
                        the fixture with noise_sigma 0.05; the supports of
                        both settle above the reduced solve's cap at
                        these settings
  sweeps{n}_pass1       one admm_solve of exactly 200 sweeps (tol_in=0) on
                        decompose's first pass of phantom{n}, where nearly
                        every pixel is active
  sweeps{n}_pass2       the same on its second pass, on the support the
                        first pass leaves at the acceptance settings, where
                        most pixels are frozen
  stage2_read_float, stage2_read_labels, stage2_write_labels,
  stage2_kmeans_k2, stage2_kmeans_k3, stage2_kmeans_k4, stage2_kmeans_k5,
  stage2_kmeans_k6
                        the stage-two layers of the segment and metrics
                        commands (read_float_grid, read_labels,
                        write_labels, kmeans_1d at K) on the n=256
                        cli_stage2 phantom of perfbench/workloads.json;
                        the layer windows run at every K, and K = 4 and 6
                        time them beyond the K = 2, 3 and 5 that the
                        benchmark runs
  stage2_kmeans_k3_n64, stage2_kmeans_k3_n128
                        kmeans_1d at K = 3 on that spec at n = 64 or 128
                        (4096 or 16384 distinct values): below and above
                        the 8192 values from which the layer windows run
  stage2_segment_k2, stage2_segment_k3, stage2_segment_k5, stage2_metrics
                        the cli_stage2 operations themselves: cli.main
                        runs `segment` at K or `metrics` in-process on
                        that phantom's u and truth CSVs, as perfbench
                        runs them

--seed N shifts every target's noise seed by N, as perfbench shifts them.

Prints, per target, the median ms of each tree over the rounds, their
ratio (this tree over the parent), the traced peak MB of each tree's
untimed run and their ratio, and the rounds this tree won, then the
geometric mean of the time ratios. Then it names every target whose work
differs between the trees (a pipeline's fixture_work.work row but its
energy: sweeps, first-pass sweeps, outer passes, capped solves, reduced
passes, declined reduced attempts, energy rises, convergence, final
support and the digests of labels, u and v; a sweep solve's sweeps and
u and v bytes; the values stage two read, wrote or clustered; a
command's exit code and the bytes of every file it wrote), with the
largest relative difference of the pipelines' final energies.

    PYTHONPATH=src python scripts/ab_suite.py --parent PATH [--seed N]
        [--rounds R] [--only NAME [NAME ...]]

PATH is the root of a checkout of the parent commit (made with git
clone or git archive); giving this repository's root times the tree
against itself. The pipeline targets call the parent's decompose_image,
so a parent without it runs only the others. To time solves with
Anderson mixing against solves without it, give as PATH a copy of this
tree whose admm._MIX_EVERY exceeds maxit_in, and run the phantom
targets.
"""

import argparse
import contextlib
import gc
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
from calibrate_fixtures import five_phase_spec, two_phase_spec
from fixture_work import fixture_problem, load_fixture, make_phantom, pipeline, work

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALIAS = "shrinkseg_parent"
SIZES = (64, 128, 256, 512)
SWEEPS = 200  # per sweep-target solve
STAGE2_LAYERS = ("read_float", "read_labels", "write_labels",
                 "kmeans_k2", "kmeans_k3", "kmeans_k4", "kmeans_k5", "kmeans_k6")
STAGE2_COMMANDS = ("segment_k2", "segment_k3", "segment_k5", "metrics")


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


def submodule(pkg, name):
    """The submodule called name of the package pkg, this tree's or the
    parent's copy; the package root exports only the user API."""
    return importlib.import_module(f"{pkg.__name__}.{name}")


def pipeline_work(out):
    """What the trees must agree on, the row of fixture_work.work but
    its energy, and that final energy."""
    result, _, labels = out
    row = work(result, labels)
    energy = row.pop("energy")
    return row, energy


def acceptance(entry, solver, seed):
    """A pipeline target: fixture_work.pipeline on a fixture entry."""
    def build(pkg, scratch):
        return pipeline(pkg, entry, solver, make_phantom(pkg, entry["spec"], seed)), pipeline_work
    return build


def sweep_work(out):
    return {"sweeps": out.iters, "u": out.u.tobytes(), "v": out.v.tobytes()}, None


def sweep_solve(entry, solver, seed, second):
    """One admm_solve of SWEEPS sweeps on decompose's first pass of a
    fixture entry, or on its second pass if second."""
    def build(pkg, scratch):
        grid, supp = submodule(pkg, "grid"), submodule(pkg, "support")
        g, model, outer, admm = fixture_problem(pkg, entry, solver, seed)
        u, v = g, np.zeros_like(g)
        norms = grid.grad_norms(grid.grad(g))
        support = supp.initial_support(norms, outer.tau_supp)
        if second:
            first = submodule(pkg, "decompose").decompose(g, model, replace(outer, maxit_out=1), admm)
            u, v = first.u, first.v
            norms = grid.grad_norms(grid.grad(u))
            support = supp.detect_support(norms, support, outer.tau_supp)
        weights = np.zeros_like(g)
        weights[support.active] = model.slope(norms[support.active])
        fixed = replace(admm, tol_in=0.0, maxit_in=SWEEPS)
        solve = submodule(pkg, "admm").admm_solve
        return partial(solve, g, u, v, weights, support, model, outer.rho, fixed), sweep_work
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


def stage2_command(command, spec, seed):
    """One cli_stage2 operation, cli.main in-process, on the phantom of
    spec: its u and truth CSVs and the command's outputs live in a
    directory of their own."""
    def build(pkg, scratch):
        phantom = make_phantom(pkg, spec, seed)
        work = Path(tempfile.mkdtemp(dir=scratch))
        u_csv, truth_csv = str(work / "u.csv"), str(work / "truth.csv")
        pkg.imgio.write_float_grid(phantom.f, u_csv)
        pkg.imgio.write_labels(phantom.truth_labels, truth_csv)
        if command == "metrics":
            outputs = ["metrics.json"]
            argv = ["metrics", u_csv, truth_csv, str(work / outputs[0])]
        else:
            outputs = ["seg_labels.csv", "seg_labels.pgm"]
            argv = ["segment", u_csv, command.removeprefix("segment_k"), str(work / "seg_")]

        def written(code):
            return {"exit": code, **{name: (work / name).read_bytes() for name in outputs}}, None

        return partial(submodule(pkg, "cli").main, argv), written
    return build


def targets(fixture, seed):
    """Every target's name and build: build(pkg, scratch) makes the
    operation run by the package pkg, writing any files under scratch,
    and returns it with work, which maps its output to what the trees
    must agree on and the final energy (None if it has none)."""
    solver = fixture["solver"]
    table = {entry["name"]: acceptance(entry, solver, seed) for entry in fixture["suite"]}
    for n in SIZES:
        entry = {"spec": two_phase_spec(n, 0.05, 0.4, "linear_ramp", 7),
                 "alpha": 0.5, "beta": 1000.0, "k": 2}
        table[f"phantom{n}"] = acceptance(entry, solver, seed)
        table[f"phantom{n}_defaults"] = acceptance(entry, None, seed)
        table[f"sweeps{n}_pass1"] = sweep_solve(entry, solver, seed, second=False)
        table[f"sweeps{n}_pass2"] = sweep_solve(entry, solver, seed, second=True)
    entry = {"spec": five_phase_spec(128, 0.05, 0.7, "linear_ramp", 7),
             "alpha": 0.3, "beta": 1000.0, "k": 5}
    table["ramp128"] = acceptance(entry, solver, seed)
    noisy = next(entry for entry in fixture["quality"] if entry["name"] == "five_phase_n128")
    noisy = dict(noisy, spec=dict(noisy["spec"], noise_sigma=0.05))
    table["noisy128"] = acceptance(noisy, solver, seed)
    with open(os.path.join(ROOT, "perfbench", "workloads.json"), encoding="utf-8") as handle:
        stage2_spec = json.load(handle)["workloads"]["cli_stage2"]["spec"]
    for layer in STAGE2_LAYERS:
        table[f"stage2_{layer}"] = stage2(layer, stage2_spec, seed)
    for n in (64, 128):
        table[f"stage2_kmeans_k3_n{n}"] = stage2("kmeans_k3", dict(stage2_spec, n=n), seed)
    for command in STAGE2_COMMANDS:
        table[f"stage2_{command}"] = stage2_command(command, stage2_spec, seed)
    return table


def timed(run):
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def traced(run, work):
    """Call run once under tracemalloc: the work of its output and the
    peak bytes traced during the call, from a collected heap."""
    gc.collect()
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

    fixture = load_fixture()
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
        for pair in ops:
            for run, _ in pair:
                run()
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
