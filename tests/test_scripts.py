"""Smoke runs of the scripts under scripts/, and of the operations
ab_suite.py builds from fixture_work.py."""

import json
import os
import re
import subprocess
import sys
import warnings

import pytest

import ab_suite
import calibrate_fixtures
import fixture_work
import shrinkseg

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")
ROOT = os.path.dirname(SCRIPTS)
# ab_suite.py with this tree as its own parent, one round
AB_SUITE = ["ab_suite.py", "--parent", ROOT, "--rounds", "1", "--only"]


@pytest.mark.parametrize(
    "argv",
    [
        [*AB_SUITE, "two_phase_s0_b0", "phantom64"],
        [*AB_SUITE, "sweeps64_pass1", "sweeps64_pass2"],
        ["phantom_report.py", "--n", "32"],
        ["fixture_work.py", "--only", "two_phase_s0_b0"],
        ["fixture_work.py", "--only", "two_phase_s0_b0", "--defaults"],
        [*AB_SUITE, "stage2_read_float", "stage2_kmeans_k3"],
        [*AB_SUITE, "stage2_segment_k2", "stage2_segment_k3", "stage2_segment_k5",
         "stage2_metrics"],
    ],
)
def test_script_exits_zero(argv):
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, argv[0]), *argv[1:]],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    if argv[0] == "ab_suite.py":
        # every target printed with both trees' times and traced peaks,
        # and one tree against itself does the same work
        names = argv[argv.index("--only") + 1:]
        lines = proc.stdout.splitlines()
        assert lines[0].split() == ["target", "parent_ms", "tree_ms", "ratio",
                                    "parent_mb", "tree_mb", "mem", "wins"]
        assert [line.split()[0] for line in lines[1:-2]] == names
        for line in lines[1:-2]:
            parent_mb, tree_mb, mem = map(float, line.split()[4:7])
            assert parent_mb > 0 and tree_mb > 0 and mem > 0
        assert lines[-1] == (f"work differs on 0 of {len(names)} targets; "
                             "largest relative energy difference 0.0e+00")


def test_fixture_work_prints_first_pass_sweeps():
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "fixture_work.py"), "--only", "two_phase_s0_b0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    header, row, total = proc.stdout.splitlines()
    assert header.split()[:3] == ["phantom", "sweeps", "first"]
    assert row.split()[0] == "two_phase_s0_b0"
    sweeps, first = map(int, row.split()[1:3])
    # the first pass always runs admm_solve, and later passes may add sweeps
    assert 0 < first <= sweeps
    assert total.split()[1:3] == row.split()[1:3]


def test_fixture_work_reruns_print_the_same_table():
    # every column is a count, a digest or a solver float, so a rerun of
    # one tree must match byte for byte
    argv = [sys.executable, os.path.join(SCRIPTS, "fixture_work.py"), "--only", "two_phase_s0_b0"]
    first, second = (subprocess.run(argv, capture_output=True, text=True) for _ in range(2))
    assert first.returncode == second.returncode == 0, first.stderr + second.stderr
    assert first.stdout == second.stdout


def test_ab_suite_times_the_tree_against_itself():
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "ab_suite.py"), "--parent", ROOT,
         "--rounds", "1", "--only", "two_phase_s0_b0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    header, row, geomean, work = proc.stdout.splitlines()
    assert header.split()[:7] == ["target", "parent_ms", "tree_ms", "ratio",
                                  "parent_mb", "tree_mb", "mem"]
    assert row.split()[0] == "two_phase_s0_b0" and row.split()[-1] in ("0/1", "1/1")
    assert geomean.startswith("geomean ratio ")
    # one tree against itself: the same work and the same bits
    assert work == "work differs on 0 of 1 targets; largest relative energy difference 0.0e+00"


@pytest.mark.parametrize("names", [
    ["two_phase_s0_b0", "two_phase_s0_b0.2", "stage2_kmeans_k3", "stage2_segment_k2",
     "stage2_metrics"],
    ["stage2_metrics", "stage2_segment_k2", "stage2_kmeans_k3", "two_phase_s0_b0",
     "two_phase_s0_b0.2"],
])
def test_ab_suite_peaks_of_the_tree_against_itself_agree(names):
    # the process's one-time allocations land in no target's trace, be
    # it the first or the first of its kind
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "ab_suite.py"), "--parent", ROOT,
         "--rounds", "1", "--only", *names],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:len(names) + 1]]
    mems = {row[0]: float(row[6]) for row in rows}
    assert sorted(mems) == sorted(names), proc.stdout
    assert all(0.99 <= mem <= 1.01 for mem in mems.values()), proc.stdout
    # without a collected heap the tree traced second read these 0.2-0.4%
    # high, whichever tree it was
    assert mems["stage2_segment_k2"] == mems["stage2_metrics"] == 1.0, proc.stdout


def test_ab_suite_rejects_an_unknown_target():
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "ab_suite.py"), "--parent", ROOT,
         "--only", "phantom64", "phantom65"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "phantom65" in proc.stderr
    for name in ("two_phase_s0_b0", "phantom512_defaults", "ramp128", "noisy128",
                 "sweeps128_pass2", "stage2_write_labels", "stage2_kmeans_k4", "stage2_kmeans_k5",
                 "stage2_kmeans_k6", "stage2_kmeans_k3_n64", "stage2_kmeans_k3_n128",
                 "stage2_segment_k5", "stage2_metrics"):
        assert name in proc.stderr


def test_ab_suite_sweep_targets_make_the_fixed_sweep_count(tmp_path):
    table = ab_suite.targets(ab_suite.load_fixture(), seed=0)
    with ab_suite.parent_package(ROOT, str(tmp_path)) as parent, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # every solve stops at its cap
        for pkg in (parent, shrinkseg):
            for name in ("sweeps64_pass1", "sweeps64_pass2"):
                run, work = table[name](pkg, str(tmp_path))
                assert work(run())[0]["sweeps"] == ab_suite.SWEEPS == 200
    assert ab_suite.ALIAS not in sys.modules


def test_ab_suite_stage2_commands_compare_the_written_files(tmp_path):
    table = ab_suite.targets(ab_suite.load_fixture(), seed=0)
    outputs = {"stage2_segment_k3": ["seg_labels.csv", "seg_labels.pgm"],
               "stage2_metrics": ["metrics.json"]}
    compared = {}
    for name, files in outputs.items():
        run, work = table[name](shrinkseg, str(tmp_path))
        compared[name], energy = work(run())
        assert energy is None
        assert sorted(compared[name]) == sorted(["exit", *files])
        assert compared[name]["exit"] == 0
    # the segment command's labels at K=3, and the metrics of both phases
    cells = compared["stage2_segment_k3"]["seg_labels.csv"].replace(b"\n", b",").split(b",")
    assert set(cells[:-1]) == {b"1", b"2", b"3"} and cells[-1] == b""
    assert len(json.loads(compared["stage2_metrics"]["metrics.json"])["phases"]) == 2


def test_ab_suite_pipeline_targets_compare_the_fixture_work_row(tmp_path):
    fixture = fixture_work.load_fixture()
    table = ab_suite.targets(fixture, seed=0)
    entry = fixture["suite"][0]
    run, work = table[entry["name"]](shrinkseg, str(tmp_path))
    compared, energy = work(run())
    phantom = fixture_work.make_phantom(shrinkseg, entry["spec"], 0)
    result, _, labels = fixture_work.pipeline(shrinkseg, entry, fixture["solver"], phantom)()
    row = fixture_work.work(result, labels)
    assert energy == row.pop("energy")
    assert compared == row
    assert {"first", "capped", "rises", "converged", "u", "v"} <= set(compared)


def test_ab_suite_docstring_names_every_target():
    # the docstring is the one list of targets: the suite64 phantoms by
    # their fixture, every other target by name or with its size as {n}
    fixture = ab_suite.load_fixture()
    doc = ab_suite.__doc__
    assert "a suite64 phantom of tests/fixtures/acceptance.json" in " ".join(doc.split())
    suite = {entry["name"] for entry in fixture["suite"]}
    missing = []
    for name in ab_suite.targets(fixture, seed=0):
        forms = {name} | {name.replace(str(n), "{n}", 1) for n in ab_suite.SIZES}
        if name not in suite and not any(
            re.search(rf"(?<![\w{{}}]){re.escape(form)}(?![\w{{}}])", doc) for form in forms
        ):
            missing.append(name)
    assert not missing, f"ab_suite.py's docstring does not name {missing}"


@pytest.mark.parametrize("n", [64, 128, 256, 512])
@pytest.mark.parametrize("build, k", [(calibrate_fixtures.two_phase_spec, 2),
                                      (calibrate_fixtures.five_phase_spec, 5)])
def test_spec_builders_return_the_json_form(build, k, n):
    # the JSON that acceptance.json stores and `shrinkseg synth` reads
    payload = build(n, 0.05, 0.4, "linear_ramp", 7)
    assert json.loads(json.dumps(payload)) == payload
    spec = shrinkseg.imgio.phantom_spec_from_dict(payload)
    assert (spec.n, len(spec.phase_values), spec.seed) == (n, k, 7)
    assert {shape.phase for shape in spec.shapes} == set(range(2, k + 1))


def test_calibration_reproduces_the_fixture_but_its_gap_floors(tmp_path):
    # the gap floors follow the solver's last bits; every other field is
    # fixed by the pilot geometry and the solver settings
    out = tmp_path / "acceptance.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "calibrate_fixtures.py"), "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr

    def without_floors(fixture):
        for entry in fixture["suite"] + fixture["quality"]:
            assert entry.pop("gap_floor") > 0
        return fixture

    with open(os.path.join(ROOT, "tests", "fixtures", "acceptance.json"), encoding="utf-8") as handle:
        pinned = json.load(handle)
    assert without_floors(json.loads(out.read_text())) == without_floors(pinned)
