"""Smoke runs of the scripts under scripts/, which no other test imports."""

import os
import subprocess
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep_bench.py", "--sizes", "16", "--sweeps", "3", "--repeats", "1"],
        ["sweep_bench.py", "--sizes", "16", "--repeats", "1", "--to-tol", "1e-6"],
        ["phantom_report.py", "--n", "32"],
        ["fixture_work.py", "--only", "two_phase_s0_b0"],
        ["fixture_work.py", "--only", "two_phase_s0_b0", "--defaults"],
        ["stage2_bench.py", "--n", "16", "--repeats", "1"],
    ],
)
def test_script_exits_zero(argv):
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, argv[0]), *argv[1:]],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


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
    root = os.path.dirname(SCRIPTS)
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "ab_suite.py"), "--parent", root,
         "--rounds", "1", "--only", "two_phase_s0_b0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    header, row, geomean, work = proc.stdout.splitlines()
    assert header.split()[:3] == ["phantom", "parent_ms", "tree_ms"]
    assert row.split()[0] == "two_phase_s0_b0" and row.split()[-1] in ("0/1", "1/1")
    assert geomean.startswith("geomean ratio ")
    # one tree against itself: the same work and the same bits
    assert work == "work differs on 0 of 1 phantoms; largest relative energy difference 0.0e+00"
