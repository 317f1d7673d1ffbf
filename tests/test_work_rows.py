"""The fixtures' work rows, pinned in tests/fixtures/work_rows.json.

fixture_work.work's row of each of the 14 fixture phantoms at seed
offsets 0 and 303, at the acceptance settings and at the CLI defaults
(fixture_work.py --defaults), regenerated through fixture_work.pipeline.
Sweeps, first-pass sweeps, outer passes, capped solves, reduced passes,
declined reduced attempts, energy rises, convergence, the final support
and the labels digest must equal the pinned ones exactly, and the final
energy within 1e-12 relative. So a change that moves one sweep, one
support pixel or one label fails here, as does a run that stops
unconverged or raises its energy at either setting. A change meant to
move them rewrites the file in the same commit, by running this module:

    PYTHONPATH=src:scripts python tests/test_work_rows.py

The digests of the u and v bytes are not pinned: they follow the
solver's last bits, which move with no other effect (holding BLAS at
one thread moved them on 54 of the 56 runs, and nothing else).
"""

import json
import math
import os

import pytest

import shrinkseg
from fixture_work import load_fixture, make_phantom, pipeline, work

PINNED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures", "work_rows.json")
# name: (seed offset, whether at the CLI defaults)
SETTINGS = {"acceptance_0": (0, False), "acceptance_303": (303, False),
            "defaults_0": (0, True), "defaults_303": (303, True)}


def _row(result, labels):
    row = work(result, labels)
    del row["u"], row["v"]
    return row


def regenerate(offset, defaults):
    """The pinned part of every fixture phantom's row at one setting."""
    fixture = load_fixture()
    solver = None if defaults else fixture["solver"]
    rows = {}
    for entry in fixture["suite"] + fixture["quality"]:
        phantom = make_phantom(shrinkseg, entry["spec"], offset)
        result, _, labels = pipeline(shrinkseg, entry, solver, phantom)()
        rows[entry["name"]] = _row(result, labels)
    return rows


def _matches(row, pinned):
    exact = {key: value for key, value in row.items() if key != "energy"}
    return (exact == {key: value for key, value in pinned.items() if key != "energy"}
            and math.isclose(row["energy"], pinned["energy"], rel_tol=1e-12, abs_tol=0.0))


@pytest.mark.parametrize("setting", SETTINGS)
def test_work_rows_match_the_pinned_rows(setting, request):
    if setting == "acceptance_0":  # the acceptance criteria's own runs
        runs = request.getfixturevalue("suite_runs")
        runs = runs + list(request.getfixturevalue("quality_runs").values())
        rows = {run["entry"]["name"]: _row(run["result"], run["labels"]) for run in runs}
    else:
        rows = regenerate(*SETTINGS[setting])
    with open(PINNED, encoding="utf-8") as handle:
        pinned = json.load(handle)[setting]
    assert list(rows) == list(pinned)
    differ = [f"{name}: " + ", ".join(f"{key} {pinned[name][key]!r} -> {value!r}"
                                      for key, value in row.items() if value != pinned[name][key])
              for name, row in rows.items() if not _matches(row, pinned[name])]
    assert not differ, "\n".join(differ)


if __name__ == "__main__":
    table = {setting: regenerate(*args) for setting, args in SETTINGS.items()}
    with open(PINNED, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1)
        handle.write("\n")
