"""Time this tree against a parent checkout in one process on the suite64 inputs.

Copies the parent checkout's src/shrinkseg into a temporary directory
under the package name shrinkseg_parent (its imports are relative, so
the copy stands alone) and imports it beside this tree's shrinkseg.
Each round runs every suite64 phantom (the suite of
tests/fixtures/acceptance.json at its solver settings, noise seeds
shifted by --seed as perfbench shifts them) through both trees: log
domain decompose, exponentiate, segment, as a perfbench suite64
operation does. The tree that goes first alternates from round to
round, and one untimed run of each tree first fills their caches and
gives the outputs that are compared.

Prints, per phantom, the median ms of each tree over the rounds, their
ratio (this tree over the parent) and the rounds this tree won, then
the geometric mean of the ratios. Then it names every phantom whose
sweeps, outer passes, reduced passes, final support size or labels
differ between the trees, with the largest relative difference of the
final energies.

    PYTHONPATH=src python scripts/ab_suite.py --parent PATH [--seed N]
        [--rounds R] [--only NAME]

PATH is the root of a checkout of the parent commit (made with git
clone or git archive); giving this repository's root times the tree
against itself.
"""

import argparse
import importlib
import json
import math
import os
import shutil
import statistics
import sys
import tempfile
import time
import warnings

import shrinkseg
from shrinkseg import generate
from shrinkseg.imgio import phantom_spec_from_dict, to_log_domain

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE = os.path.join(ROOT, "tests", "fixtures", "acceptance.json")
ALIAS = "shrinkseg_parent"


def load_parent(parent_root, into):
    """The parent checkout's package, copied into the directory into and
    imported as ALIAS."""
    source = os.path.join(parent_root, "src", "shrinkseg")
    if not os.path.isfile(os.path.join(source, "__init__.py")):
        raise FileNotFoundError(f"no src/shrinkseg package under {parent_root!r}")
    shutil.copytree(source, os.path.join(into, ALIAS),
                    ignore=shutil.ignore_patterns("__pycache__"))
    sys.path.insert(0, into)
    return importlib.import_module(ALIAS)


def make_op(pkg, g, entry, solver):
    """One suite64 operation on the log-domain input g, run by pkg."""
    imgio = importlib.import_module(pkg.__name__ + ".imgio")
    model = pkg.ModelParams(alpha=entry["alpha"], beta=entry["beta"])
    outer = pkg.OuterParams(tol_out=solver["tol_out"], maxit_out=solver["maxit_out"],
                            tau_supp=solver["tau_supp"])
    admm = pkg.AdmmParams(r=solver["r"], tol_in=solver["tol_in"], maxit_in=solver["maxit_in"])

    def run():
        result = pkg.decompose(g, model, outer, admm)
        return result, pkg.segment(imgio.from_log_domain(result.u), entry["k"]).labels

    return run


def work(out):
    """What the trees must agree on, and the final energy."""
    result, labels = out
    return {
        "sweeps": int(result.trace.column("inner_iters").sum()),
        "passes": result.outer_iters,
        "reduced": result.reduced_solves,
        "support": result.trace[-1].support_size,
        "labels": labels.tobytes(),
    }, result.trace[-1].energy


def timed(run):
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, metavar="PATH",
                        help="root of the parent checkout")
    parser.add_argument("--seed", type=int, default=0, metavar="N")
    parser.add_argument("--rounds", type=int, default=7, metavar="R")
    parser.add_argument("--only", metavar="NAME", help="run this phantom only")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    with open(FIXTURE, encoding="utf-8") as handle:
        fixture = json.load(handle)
    entries = fixture["suite"]
    if args.only:
        entries = [e for e in entries if e["name"] == args.only]
        if not entries:
            parser.error(f"no suite64 phantom named {args.only!r}")

    scratch = tempfile.mkdtemp(prefix="ab_suite_")
    try:
        try:
            parent = load_parent(args.parent, scratch)
        except FileNotFoundError as error:
            parser.error(str(error))
        ops = []
        for entry in entries:
            spec = dict(entry["spec"], seed=(entry["spec"]["seed"] + args.seed) % 2**63)
            phantom = generate(phantom_spec_from_dict(spec))
            g = to_log_domain(phantom.f / phantom.f.max())
            ops.append((make_op(parent, g, entry, fixture["solver"]),
                        make_op(shrinkseg, g, entry, fixture["solver"])))

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            outputs = [(work(old()), work(new())) for old, new in ops]
            times = [([], []) for _ in ops]
            for round_ in range(args.rounds):
                for (old, new), (old_s, new_s) in zip(ops, times):
                    if round_ % 2:
                        new_s.append(timed(new))
                        old_s.append(timed(old))
                    else:
                        old_s.append(timed(old))
                        new_s.append(timed(new))
    finally:
        if scratch in sys.path:
            sys.path.remove(scratch)
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"{'phantom':<28} {'parent_ms':>9} {'tree_ms':>9} {'ratio':>6} {'wins':>7}")
    ratios = []
    for entry, (old_s, new_s) in zip(entries, times):
        old_ms, new_ms = 1e3 * statistics.median(old_s), 1e3 * statistics.median(new_s)
        ratios.append(new_ms / old_ms)
        wins = sum(new < old for old, new in zip(old_s, new_s))
        print(f"{entry['name']:<28} {old_ms:>9.2f} {new_ms:>9.2f} {ratios[-1]:>6.3f} "
              f"{wins:>3}/{args.rounds:<3}")
    geomean = math.exp(sum(map(math.log, ratios)) / len(ratios))
    print(f"geomean ratio {geomean:.3f} over {len(entries)} phantoms, "
          f"{args.rounds} rounds, seed {args.seed}")

    differ = 0
    for entry, ((old, old_e), (new, new_e)) in zip(entries, outputs):
        keys = [key for key in old if old[key] != new[key]]
        if keys:
            differ += 1
            shown = ", ".join(
                f"{key} {old[key]} -> {new[key]}" if key != "labels" else "labels" for key in keys
            )
            print(f"differs: {entry['name']}: {shown}")
    gap = max(abs(new_e - old_e) / abs(old_e) for (_, old_e), (_, new_e) in outputs)
    print(f"work differs on {differ} of {len(entries)} phantoms; "
          f"largest relative energy difference {gap:.1e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
