"""Deterministic work counts of stage one on the pinned fixture phantoms.

Runs every phantom of tests/fixtures/acceptance.json (the n=64 suite and
the n=128 quality runs) through the acceptance pipeline: the package's
decompose_image on f / max f in the log domain, at the fixture's solver
settings, then segment into K phases.
Prints one line per phantom (inner sweeps, those of the first outer
pass, outer passes, capped inner solves, passes solved in reduced form,
reduced attempts within the cap that declined, energy rises, whether the
run converged, final support size, digests of the labels and of the u
and v bytes, and the final energy) and the
totals, where the converged column counts the converged runs. Rises and
convergence are read from the DecompositionResult, not from warnings,
which Python shows once per code location. Every number is a count or
a float the solver computes, so two runs of one tree print the same
table, and two trees can be compared line by line. pipeline and work
are the one build of that pipeline and of its row: scripts/ab_suite.py
times and compares them, phantom_report.py, calibrate_fixtures.py and
the acceptance tests run pipeline, and tests/test_work_rows.py pins the
rows of work.

    PYTHONPATH=src python scripts/fixture_work.py [--only NAME]
        [--seed-offset N] [--defaults]

--seed-offset N shifts every phantom's noise seed by N (0 keeps the
pinned seeds); --only NAME runs one phantom; --defaults solves with the
settings `shrinkseg run` uses with no config (OuterParams() and
AdmmParams()) instead of the fixture's.
"""

import argparse
import hashlib
import json
import os
import sys

import shrinkseg

FIXTURE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tests", "fixtures", "acceptance.json",
)


def load_fixture():
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


def digest(array):
    return hashlib.sha256(array.tobytes()).hexdigest()[:12]


def make_phantom(pkg, spec, seed_offset):
    """The phantom of a spec dict, built by the package pkg, with its
    noise seed shifted by seed_offset (0 keeps the pinned seed)."""
    spec = dict(spec, seed=(spec["seed"] + seed_offset) % 2**63)
    return pkg.generate(pkg.imgio.phantom_spec_from_dict(spec))


def fixture_input(pkg, entry, solver, phantom):
    """pkg's (f, ModelParams, OuterParams, AdmmParams) for a fixture entry
    and its phantom: f is the phantom's f over its maximum, in (0, 1] as
    the log domain needs, and solver the fixture's settings, or None for
    the CLI defaults."""
    if solver is None:
        outer, admm = pkg.OuterParams(), pkg.AdmmParams()
    else:
        outer = pkg.OuterParams(tol_out=solver["tol_out"], maxit_out=solver["maxit_out"],
                                tau_supp=solver["tau_supp"])
        admm = pkg.AdmmParams(r=solver["r"], tol_in=solver["tol_in"],
                              maxit_in=solver["maxit_in"])
    model = pkg.ModelParams(alpha=entry["alpha"], beta=entry["beta"])
    return phantom.f / phantom.f.max(), model, outer, admm


def fixture_problem(pkg, entry, solver, seed_offset):
    """fixture_input with the log of its f: the problem decompose solves."""
    f, *settings = fixture_input(pkg, entry, solver, make_phantom(pkg, entry["spec"], seed_offset))
    return pkg.imgio.to_log_domain(f), *settings


def pipeline(pkg, entry, solver, phantom):
    """The acceptance pipeline of the package pkg on a fixture entry and
    its phantom, as a call: decompose_image in the log domain on
    fixture_input (built once, here), then segment u into the entry's K
    phases; it returns (result, u, labels)."""
    problem = fixture_input(pkg, entry, solver, phantom)

    def run():
        result, u, _ = pkg.decompose_image(*problem, log_domain=True)
        return result, u, pkg.segment(u, entry["k"]).labels

    return run


def work(result, labels):
    """One phantom's row, from the result and labels of a pipeline call."""
    return {
        "sweeps": int(result.trace.column("inner_iters").sum()),
        "first": result.trace[0].inner_iters,
        "outer": result.outer_iters,
        "capped": result.capped_solves,
        "reduced": result.reduced_solves,
        "declined": result.reduced_declines,
        "rises": result.energy_rises,
        "converged": int(result.converged),
        "support": result.trace[-1].support_size,
        "labels": digest(labels),
        "u": digest(result.u),
        "v": digest(result.v),
        "energy": result.trace[-1].energy,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", metavar="NAME", help="run this phantom only")
    parser.add_argument("--seed-offset", type=int, default=0, metavar="N")
    parser.add_argument("--defaults", action="store_true",
                        help="solve at the CLI defaults, not the fixture's settings")
    args = parser.parse_args(argv)

    fixture = load_fixture()
    entries = fixture["suite"] + fixture["quality"]
    if args.only:
        entries = [e for e in entries if e["name"] == args.only]
        if not entries:
            parser.error(f"no fixture phantom named {args.only!r}")

    print(f"{'phantom':<28} {'sweeps':>7} {'first':>5} {'outer':>5} {'capped':>6} {'reduced':>7} "
          f"{'declined':>8} {'rises':>5} {'converged':>9} {'support':>7}  {'labels':<12}  "
          f"{'u':<12}  {'v':<12}  energy")
    totals = dict(sweeps=0, first=0, outer=0, capped=0, reduced=0, declined=0, rises=0,
                  converged=0)
    solver = None if args.defaults else fixture["solver"]
    for entry in entries:
        phantom = make_phantom(shrinkseg, entry["spec"], args.seed_offset)
        result, _, labels = pipeline(shrinkseg, entry, solver, phantom)()
        row = work(result, labels)
        for key in totals:
            totals[key] += row[key]
        print(f"{entry['name']:<28} {row['sweeps']:>7} {row['first']:>5} {row['outer']:>5} "
              f"{row['capped']:>6} {row['reduced']:>7} {row['declined']:>8} {row['rises']:>5} "
              f"{row['converged']:>9} {row['support']:>7}  {row['labels']:<12}  "
              f"{row['u']:<12}  {row['v']:<12}  {row['energy']!r}")
    print(f"{'total':<28} {totals['sweeps']:>7} {totals['first']:>5} {totals['outer']:>5} "
          f"{totals['capped']:>6} {totals['reduced']:>7} {totals['declined']:>8} "
          f"{totals['rises']:>5} {totals['converged']:>6}/{len(entries)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
