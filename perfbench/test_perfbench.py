"""Fast self-test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench

Checks the harness, not the solver: every metric named in
BENCHMARK.json is emitted with its unit and direction, the layer map
sits beside each workload's reason, tracing leaves outputs and module
names untouched, and the output checks reject wrong answers.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402

run._import_package()

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SPEC = workloads.load_spec(ROOT)


@pytest.fixture(scope="module")
def results():
    return {
        (name, trace): run.bench(name, 5, 0.0, trace, tiny=True)
        for name in run.WORKLOADS
        for trace in (False, True)
    }


def test_workloads_agree_with_benchmark_json():
    names = [w["name"] for w in BENCH["workloads"]]
    assert names == list(run.WORKLOADS) == list(SPEC["workloads"])
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCH["per_layer"]} == run.PER_LAYER


def test_every_metric_emitted_with_unit_and_direction(results):
    for (name, trace), result in results.items():
        table = BENCH["per_layer"] if trace else BENCH["end_to_end"]
        assert list(result["metrics"]) == [m["name"] for m in table]
        for m in table:
            got = result["metrics"][m["name"]]
            assert (got["unit"], got["better"]) == (m["unit"], m["better"]), m["name"]
            assert np.isfinite(got["value"]), (name, m["name"])
        if not trace:
            assert {k: (m["unit"], m["better"]) for k, m in result["reported"].items()} == run.REPORTED
        assert result["correct"], result["operations"]
        assert result["attempted"] >= 1


def test_layer_map_beside_each_reason():
    end_to_end = {m["name"] for m in BENCH["end_to_end"]}
    per_layer = {m["name"] for m in BENCH["per_layer"]}
    assert set(SPEC["end_to_end"]) == end_to_end
    assert set(SPEC["reported"]) == set(run.REPORTED)
    assert set(SPEC["per_layer"]) == per_layer
    for w in BENCH["workloads"]:
        entry = SPEC["workloads"][w["name"]]
        assert entry["why"] == w["why"]
        assert set(entry["layer_map"]) == per_layer
        for targets in entry["layer_map"].values():
            assert set(targets) <= end_to_end | set(run.REPORTED)


def test_decomposition_spans_cover_op_time(results):
    metrics = results[("suite64", True)]["metrics"]
    assert metrics["admm.inner_iters"]["value"] > 0
    assert 0.0 < metrics["trace.covered_frac"]["value"] <= 1.0


def test_tracer_wraps_then_restores_every_name():
    ops = workloads.build("suite64", ROOT, 0, ROOT, tiny=True)
    plain = ops[0].digest(ops[0].run())
    tracer = tracing.Tracer()
    originals = {
        (mod, attr): getattr(sys.modules[mod], attr) for mod, attr, _ in tracing.PATCHES
    }
    tracer.install(0)
    try:
        for (mod, attr), original in originals.items():
            assert getattr(sys.modules[mod], attr).__wrapped__ is original
        traced = ops[0].digest(ops[0].run())
    finally:
        tracer.restore()
    for (mod, attr), original in originals.items():
        assert getattr(sys.modules[mod], attr) is original
    assert traced == plain
    assert {span[0] for span in tracer.spans} >= {"decompose", "admm", "admm.solve_uv"}


def test_self_time_subtracts_direct_children():
    spans = [
        ["op", 0.0, 10.0, -1, 0],
        ["admm", 1.0, 7.0, 0, 0],
        ["admm.solve_uv", 2.0, 5.0, 1, 0],
        ["energy", 8.0, 9.0, 0, 0],
    ]
    busy, own = tracing.span_times(spans)
    assert busy["admm"] == 6.0 and own["admm"] == 3.0
    assert own["op"] == 3.0 and own["admm.solve_uv"] == 3.0


def test_cluster_check_rejects_wrong_labels():
    u = np.array([[0.1, 0.2], [0.8, 0.9]])
    good = np.array([[1, 1], [2, 2]])
    assert workloads._check_clusters(u, good, 2) == pytest.approx(0.01)
    for bad in ([[1, 2], [2, 2]], [[2, 2], [1, 1]], [[1, 1], [2, 3]]):
        with pytest.raises(workloads.CheckFailed):
            workloads._check_clusters(u, np.array(bad), 2)


def test_seed_zero_keeps_pinned_noise_and_others_shift_it():
    spec = SPEC["workloads"]["cli_stage2"]["spec"]
    pinned = workloads.generate(workloads.imgio.phantom_spec_from_dict(spec)).f
    assert np.array_equal(workloads._phantom(spec, 0).f, pinned)
    assert not np.array_equal(workloads._phantom(spec, 1).f, pinned)


def test_refuses_checkout_without_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite64", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
