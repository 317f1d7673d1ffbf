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
