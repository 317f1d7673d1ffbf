"""Smoke runs of the scripts under scripts/, which no other test imports."""

import json
import os
import subprocess
import sys
import warnings

import pytest

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


def test_ab_suite_rejects_an_unknown_target():
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "ab_suite.py"), "--parent", ROOT,
         "--only", "phantom64", "phantom65"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "phantom65" in proc.stderr
    for name in ("two_phase_s0_b0", "phantom512_defaults", "sweeps128_pass2",
                 "stage2_write_labels", "stage2_kmeans_k5"):
        assert name in proc.stderr


def test_ab_suite_sweep_targets_make_the_fixed_sweep_count(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(SCRIPTS)
    import ab_suite

    with open(ab_suite.FIXTURE, encoding="utf-8") as handle:
        table = ab_suite.targets(json.load(handle), seed=0)
    with ab_suite.parent_package(ROOT, str(tmp_path)) as parent, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # every solve stops at its cap
        for pkg in (parent, shrinkseg):
            for name in ("sweeps64_pass1", "sweeps64_pass2"):
                run, work = table[name](pkg, str(tmp_path))
                assert work(run())[0]["sweeps"] == ab_suite.SWEEPS == 200
    assert ab_suite.ALIAS not in sys.modules
