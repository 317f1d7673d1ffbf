import os
import time

import numpy as np
import pytest

import shrinkseg
from fixture_work import load_fixture, make_phantom, pipeline

SRC_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Tests that start `python -m shrinkseg.cli` run it from a temporary
# directory, where a relative PYTHONPATH entry no longer resolves.
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC_PATH, os.environ.get("PYTHONPATH")) if p
)


@pytest.fixture(scope="session")
def acceptance_fixtures():
    return load_fixture()


def _run_entry(entry, solver):
    """fixture_work's pipeline on the entry at solver, timed."""
    phantom = make_phantom(shrinkseg, entry["spec"], 0)
    run = pipeline(shrinkseg, entry, solver, phantom)
    start = time.perf_counter()
    result, u, labels = run()
    elapsed = time.perf_counter() - start
    return {"entry": entry, "phantom": phantom, "result": result, "u": u, "labels": labels,
            "elapsed": elapsed}


@pytest.fixture(scope="session")
def suite_runs(acceptance_fixtures):
    """The n=64 phantom batch shared by the energy/support/gap criteria."""
    solver = acceptance_fixtures["solver"]
    return [_run_entry(e, solver) for e in acceptance_fixtures["suite"]]


@pytest.fixture(scope="session")
def quality_runs(acceptance_fixtures):
    """The n=128 runs with frozen segmentation quality thresholds."""
    solver = acceptance_fixtures["solver"]
    return {e["name"]: _run_entry(e, solver) for e in acceptance_fixtures["quality"]}


@pytest.fixture
def announce(capsys):
    """Print one pass/fail line per acceptance criterion, bypassing capture."""

    def _announce(number, ok, detail):
        with capsys.disabled():
            print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'}  {detail}")

    return _announce


def stable_window_ratios(result):
    """Gradient gap ratios from the iteration where the support reached
    its final set, onward."""
    support = result.trace.column("support_size")
    ratios = result.trace.column("min_nonzero_grad") / result.trace.column("max_grad")
    stable_from = next(
        j for j in range(len(support)) if np.all(support[j:] == support[-1])
    )
    return ratios[stable_from:]
