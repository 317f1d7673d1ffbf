import importlib
import json
import re
import shlex
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest

import oracles
import shrinkseg
from shrinkseg import cli, decompose_image, imgio, reduced
from shrinkseg.cli import main

ROOT = Path(__file__).resolve().parent.parent

SPEC = {
    "n": 16,
    "phase_values": [0.3, 0.8],
    "shapes": [
        {"type": "disk", "row": 8, "col": 5, "radius": 3, "phase": 2},
        {"type": "rect", "row0": 3, "col0": 11, "row1": 8, "col1": 14, "phase": 2},
    ],
    "bias_amplitude": 0.4,
    "bias_kind": "linear_ramp",
    "noise_sigma": 0.02,
    "composition": "multiplicative",
    "seed": 7,
}

CONFIG = {
    "alpha": 0.5,
    "beta": 1000.0,
    "K": 2,
    "log_domain": True,
    "tol_in": 1e-8,
    "maxit_in": 500,
    "maxit_out": 40,
}


def capped_solves():
    """Expects the warning of the inner solves that CONFIG's maxit_in
    caps: every run and decompose of these images caps one."""
    return pytest.warns(RuntimeWarning, match="inner solves stopped at maxit_in=500")


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synth + full run shared by the read-only assertions below."""
    root = tmp_path_factory.mktemp("cli")
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(CONFIG))

    assert main(["synth", str(spec_path), str(root / "ph")]) == 0
    with capped_solves():
        assert main([
            "run", str(root / "ph_f.csv"), str(root / "out"),
            "--config", str(cfg_path), "--truth", str(root / "ph_truth.csv"),
        ]) == 0
    return root


class TestPipeline:
    def test_synth_outputs(self, workspace):
        for stem in ("f.csv", "f.pgm", "truth.csv", "clean.csv", "bias.csv"):
            assert (workspace / f"ph_{stem}").exists()

    def test_run_outputs(self, workspace):
        for stem in ("f.pgm", "u.csv", "v.csv", "u.pgm", "v.pgm",
                     "trace.csv", "labels.csv", "labels.pgm", "report.json"):
            assert (workspace / f"out_{stem}").exists()

    def test_run_report(self, workspace):
        report = json.loads((workspace / "out_report.json").read_text())
        assert report["converged"] is True
        rows = oracles.read_trace(workspace / "out_trace.csv")
        capped = sum(row.inner_iters == CONFIG["maxit_in"] for row in rows)
        assert report["capped_solves"] == capped
        assert report["log_domain"] is True
        assert report["energy_increased"] is False
        assert report["energy_rises"] == 0
        assert report["k"] == 2
        assert [p["phase"] for p in report["phases"]] == [1, 2]
        assert all(p["js"] >= 0.9 for p in report["phases"])
        assert all(0.0 <= p["cv"] <= 0.2 for p in report["phases"])

    @pytest.mark.parametrize("steps", [None, 0])
    def test_report_counts_reduced_passes_and_declines(self, workspace, monkeypatch, steps):
        if steps == 0:  # no Newton steps to spend: every reduced attempt declines
            monkeypatch.setattr(reduced, "_NEWTON_STEPS", 0)
        with capped_solves():
            assert main(["decompose", str(workspace / "ph_f.csv"), str(workspace / f"steps{steps}"),
                         "--config", str(workspace / "cfg.json")]) == 0
        report = json.loads((workspace / f"steps{steps}_report.json").read_text())
        config = cli.config_from_dict(dict(CONFIG))
        with capped_solves():
            result, u, _ = decompose_image(imgio.read_float_grid(workspace / "ph_f.csv"),
                                           config.model_params(), config.outer_params(),
                                           config.admm_params(), config.log_domain)
        assert report["reduced_solves"] == result.reduced_solves
        assert report["reduced_declines"] == result.reduced_declines
        assert (result.reduced_solves if steps is None else result.reduced_declines) > 0
        # the CLI runs the library's stage one: u reads back bit for bit
        assert imgio.read_float_grid(workspace / f"steps{steps}_u.csv").tobytes() == u.tobytes()

    def test_segment_subcommand_reproduces_run_labels(self, workspace):
        assert main(["segment", str(workspace / "out_u.csv"), "2",
                     str(workspace / "seg")]) == 0
        seg = (workspace / "seg_labels.csv").read_bytes()
        assert seg == (workspace / "out_labels.csv").read_bytes()

    def test_segment_label_pgm_spreads_levels(self, tmp_path):
        # phase i of K is drawn at i/K of full scale, rounded half up
        imgio.write_float_grid(np.array([[0.1, 0.5], [0.9, 0.9]]), tmp_path / "u.csv")
        assert main(["segment", str(tmp_path / "u.csv"), "3", str(tmp_path / "s")]) == 0
        assert (tmp_path / "s_labels.csv").read_bytes() == b"1,2\n3,3\n"
        assert (tmp_path / "s_labels.pgm").read_bytes() == (
            b"P5\n2 2\n255\n" + bytes([85, 170, 255, 255]))

    def test_decompose_subcommand(self, workspace):
        with capped_solves():
            assert main([
                "decompose", str(workspace / "ph_f.csv"), str(workspace / "dec"),
                "--config", str(workspace / "cfg.json"),
            ]) == 0
        for stem in ("u.csv", "v.csv", "u.pgm", "v.pgm", "trace.csv", "report.json"):
            assert (workspace / f"dec_{stem}").exists()
        assert not (workspace / "dec_labels.csv").exists()
        # same config as run, so stage one must agree bit for bit
        assert (workspace / "dec_u.csv").read_bytes() == \
            (workspace / "out_u.csv").read_bytes()

    def test_trace_is_readable_and_monotone(self, workspace):
        rows = oracles.read_trace(workspace / "out_trace.csv")
        energies = [row.energy for row in rows]
        assert energies == sorted(energies, reverse=True)

    def test_metrics_identity(self, workspace):
        report_path = workspace / "ident.json"
        assert main(["metrics", str(workspace / "ph_truth.csv"),
                     str(workspace / "ph_truth.csv"), str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["k"] == 2
        assert all(p["js"] == 1.0 for p in report["phases"])
        assert all("cv" not in p for p in report["phases"])

    def test_metrics_reports_null_cv_for_phase_absent_from_truth(self, workspace):
        report_path = workspace / "k3.json"
        assert main(["metrics", str(workspace / "ph_f.csv"),
                     str(workspace / "ph_truth.csv"), str(report_path), "-K", "3"]) == 0
        phases = json.loads(report_path.read_text())["phases"]
        assert [p["phase"] for p in phases] == [1, 2, 3]
        assert phases[2]["cv"] is None
        assert all(p["cv"] >= 0.0 for p in phases[:2])

    def test_metrics_on_intensities_adds_cv(self, workspace):
        report_path = workspace / "ucv.json"
        assert main(["metrics", str(workspace / "out_u.csv"),
                     str(workspace / "ph_truth.csv"), str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert all("cv" in p for p in report["phases"])
        run_report = json.loads((workspace / "out_report.json").read_text())
        got = [p["js"] for p in report["phases"]]
        want = [p["js"] for p in run_report["phases"]]
        assert got == want


RECT = (40, 64)


@pytest.fixture(scope="module")
def rect_workspace(tmp_path_factory):
    """A 40 x 64 two-phase image with a horizontal bias, as CSV and PGM."""
    root = tmp_path_factory.mktemp("rect")
    rows, cols = np.indices(RECT)
    truth = np.where((rows - 18) ** 2 + (cols - 40) ** 2 < 100, 2, 1)
    f = np.where(truth == 2, 0.8, 0.3) * (0.8 + 0.4 * cols / (RECT[1] - 1))
    f += 0.02 * np.random.default_rng(3).standard_normal(RECT)
    imgio.write_float_grid(f, root / "f.csv")
    imgio.write_image(f, root / "f.pgm")
    imgio.write_labels(truth, root / "truth.csv")
    (root / "cfg.json").write_text(json.dumps(CONFIG))
    return root


class TestRectangularGrid:
    """Every stage of the CLI on a 40 x 64 grid, read as CSV and as PGM."""

    @pytest.mark.parametrize("ext", ["csv", "pgm"])
    def test_run_decompose_segment_metrics(self, rect_workspace, ext):
        root = rect_workspace
        src = str(root / f"f.{ext}")
        cfg = ["--config", str(root / "cfg.json")]
        with capped_solves():
            assert main(["run", src, str(root / f"run_{ext}"), *cfg,
                         "--truth", str(root / "truth.csv")]) == 0
        with capped_solves():
            assert main(["decompose", src, str(root / f"dec_{ext}"), *cfg]) == 0
        u_path = str(root / f"run_{ext}_u.csv")
        assert main(["segment", u_path, "2", str(root / f"seg_{ext}")]) == 0
        assert main(["metrics", u_path, str(root / "truth.csv"),
                     str(root / f"met_{ext}.json")]) == 0

        for stem in ("run", "dec"):
            for part in ("u", "v"):
                grid = imgio.read_float_grid(root / f"{stem}_{ext}_{part}.csv")
                assert grid.shape == RECT
                assert (root / f"{stem}_{ext}_{part}.pgm").read_bytes().startswith(b"P5\n64 40\n")
        for stem in ("run", "seg"):
            assert imgio.read_labels(root / f"{stem}_{ext}_labels.csv").shape == RECT
            assert imgio.read_image(root / f"{stem}_{ext}_labels.pgm").shape == RECT
        run_report = json.loads((root / f"run_{ext}_report.json").read_text())
        assert all(p["js"] >= 0.9 for p in run_report["phases"])
        metrics = json.loads((root / f"met_{ext}.json").read_text())
        assert [p["js"] for p in metrics["phases"]] == [p["js"] for p in run_report["phases"]]


class TestPrefixes:
    def test_plain_prefix_gets_underscore(self, tmp_path):
        u = np.array([[0.0, 1.0], [1.0, 0.0]])
        imgio.write_float_grid(u, tmp_path / "u.csv")
        assert main(["segment", str(tmp_path / "u.csv"), "2",
                     str(tmp_path / "res")]) == 0
        assert (tmp_path / "res_labels.csv").exists()

    def test_directory_prefix_kept_and_created(self, tmp_path):
        u = np.array([[0.0, 1.0], [1.0, 0.0]])
        imgio.write_float_grid(u, tmp_path / "u.csv")
        assert main(["segment", str(tmp_path / "u.csv"), "2",
                     str(tmp_path / "deep/dir") + "/"]) == 0
        assert (tmp_path / "deep/dir/labels.csv").exists()


class TestExitCodes:
    def test_missing_input_is_runtime_error(self, tmp_path, capsys):
        code = main(["segment", str(tmp_path / "nope.csv"), "2",
                     str(tmp_path / "x")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_flag_value_is_config_error(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "whatever.csv"), str(tmp_path / "x"),
                     "--alpha", "1", "--beta", "1", "-K", "1"])
        assert code == 2
        assert "K" in capsys.readouterr().err

    def test_segment_single_phase_is_usage_error(self, tmp_path, capsys):
        imgio.write_float_grid(np.array([[0.0, 1.0], [1.0, 0.0]]), tmp_path / "u.csv")
        code = main(["segment", str(tmp_path / "u.csv"), "1", str(tmp_path / "x")])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not list(tmp_path.glob("x*"))

    @pytest.mark.parametrize("k", ["0", "1"])
    def test_metrics_phase_count_below_two_is_usage_error(self, tmp_path, capsys, k):
        imgio.write_labels(np.array([[1, 2], [2, 1]]), tmp_path / "t.csv")
        code = main(["metrics", str(tmp_path / "t.csv"), str(tmp_path / "t.csv"),
                     str(tmp_path / "r.json"), "-K", k])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_metrics_single_phase_truth_with_float_input_is_usage_error(self, tmp_path, capsys):
        imgio.write_float_grid(np.array([[0.1, 0.9], [0.8, 0.2]]), tmp_path / "u.csv")
        imgio.write_labels(np.ones((2, 2), dtype=int), tmp_path / "t.csv")
        code = main(["metrics", str(tmp_path / "u.csv"), str(tmp_path / "t.csv"),
                     str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "truth file" in err and "-K" in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("command", ["run", "metrics"])
    def test_truth_of_another_shape_fails_before_either_stage(self, tmp_path, capsys,
                                                              monkeypatch, command):
        # a 16x16 truth for a 32x32 image stops the command before
        # decompose or segment runs, and nothing is written
        def never(*args, **kwargs):
            raise AssertionError(f"{command} ran a stage on a truth of another shape")

        monkeypatch.setattr(cli, "decompose_image", never)
        monkeypatch.setattr(cli, "segment", never)
        f, truth = str(tmp_path / "f.csv"), str(tmp_path / "t.csv")
        imgio.write_float_grid(np.random.default_rng(0).random((32, 32)), f)
        imgio.write_labels(np.ones((16, 16), dtype=int), truth)
        argv = {"run": ["run", f, str(tmp_path / "out" / "x"), "--alpha", "0.5",
                        "--beta", "1000", "--truth", truth],
                "metrics": ["metrics", f, truth, str(tmp_path / "out" / "r.json"), "-K", "2"]}
        assert main(argv[command]) == 1
        assert capsys.readouterr().err == (
            f"error: label shapes disagree: {f} has shape (32, 32), {truth} has shape (16, 16)\n")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["f.csv", "t.csv"]

    def test_flat_u_names_alpha_before_writing(self, workspace, tmp_path, capsys):
        # outside the log domain, alpha 0.5 flattens this phantom's u to one value
        assert main(["run", str(workspace / "ph_f.csv"), str(tmp_path / "out" / "x"),
                     "--alpha", "0.5", "--beta", "1000", "--no-log-domain"]) == 1
        assert capsys.readouterr().err == (
            "error: u came out flat: 1 distinct value(s), fewer than K=2; "
            "lower alpha (--alpha)\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("ext", ["pgm", "csv"])
    @pytest.mark.parametrize("command", ["segment", "run", "decompose", "metrics"])
    def test_a_grid_one_pixel_high_is_named(self, tmp_path, capsys, command, ext):
        # the same 1x2 grid as a P2 PGM and as a CSV: either way the file is named
        path, truth = str(tmp_path / f"thin.{ext}"), str(tmp_path / "t.csv")
        if ext == "pgm":
            (tmp_path / "thin.pgm").write_bytes(b"P2\n2 1\n255\n0 255\n")
        else:
            (tmp_path / "thin.csv").write_text("0.0,1.0\n")
        imgio.write_labels(np.array([[1, 2]]), truth)
        out = str(tmp_path / "out" / "x")
        argv = {"segment": ["segment", path, "2", out],
                "run": ["run", path, out, "--alpha", "0.5", "--beta", "1000"],
                "decompose": ["decompose", path, out, "--alpha", "0.5", "--beta", "1000"],
                "metrics": ["metrics", path, truth, out, "-K", "2"]}
        assert main(argv[command]) == 1
        assert capsys.readouterr().err == (
            f"error: {path} must be a 2D array with sides >= 2, got shape (1, 2)\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv", f"thin.{ext}"]

    @pytest.mark.parametrize("values, k", [([0.5], "2"), ([0.2, 0.7], "3")],
                             ids=["constant_k2", "two_valued_k3"])
    def test_an_input_of_fewer_than_k_values_is_named(self, tmp_path, capsys, values, k):
        # an input of fewer than K values cannot hold K phases, whatever alpha
        f = np.resize(values, 64).reshape(8, 8)
        path = str(tmp_path / "f.csv")
        imgio.write_float_grid(f, path)
        assert main(["run", path, str(tmp_path / "out" / "x"), "--alpha", "0.5",
                     "--beta", "1000", "-K", k]) == 1
        assert capsys.readouterr().err == (
            f"error: {path} holds {len(values)} distinct value(s), fewer than K={k}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.csv"]

    @pytest.mark.parametrize("labels, truth, k, bad", [
        ([[0, 1], [1, 0]], [[1, 2], [2, 1]], None, "l.csv holds label 0, outside 1..2"),
        ([[1, 2], [2, 1]], [[0, 1], [1, 0]], None, "t.csv holds label 0, outside 1..K"),
        ([[1, 2], [2, 1]], [[1, 2], [3, 1]], "2", "t.csv holds label 3, outside 1..2"),
        ([[1, 2], [3, 1]], [[1, 2], [2, 1]], "2", "l.csv holds label 3, outside 1..2"),
        # without -K, K is the largest truth label: a label above it is
        # a phase the report would never name
        ([[1, 2], [3, 1]], [[1, 2], [2, 1]], None, "l.csv holds label 3, outside 1..2"),
    ], ids=["label_zero", "truth_zero", "truth_above_k", "label_above_k",
            "label_above_truth_k"])
    def test_metrics_rejects_labels_outside_one_to_k(self, tmp_path, capsys, labels, truth, k,
                                                     bad):
        imgio.write_labels(np.array(labels), tmp_path / "l.csv")
        imgio.write_labels(np.array(truth), tmp_path / "t.csv")
        code = main(["metrics", str(tmp_path / "l.csv"), str(tmp_path / "t.csv"),
                     str(tmp_path / "r.json"), *(["-K", k] if k else [])])
        assert code == 1
        assert capsys.readouterr().err == f"error: {tmp_path / bad}\n"
        assert not (tmp_path / "r.json").exists()

    def test_run_rejects_a_truth_label_above_k_before_either_stage(self, tmp_path, capsys,
                                                                   monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("run ran a stage on a truth outside 1..K")

        monkeypatch.setattr(cli, "decompose_image", never)
        monkeypatch.setattr(cli, "segment", never)
        f, truth = str(tmp_path / "f.csv"), str(tmp_path / "t.csv")
        imgio.write_float_grid(np.random.default_rng(0).random((4, 4)), f)
        imgio.write_labels(np.arange(16).reshape(4, 4) % 3 + 1, truth)
        assert main(["run", f, str(tmp_path / "out" / "x"), "--alpha", "0.5", "--beta", "1000",
                     "--truth", truth]) == 1
        assert capsys.readouterr().err == f"error: {truth} holds label 3, outside 1..2\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["f.csv", "t.csv"]

    @pytest.mark.parametrize("command", ["run", "decompose"])
    def test_log_domain_rejects_values_above_one(self, tmp_path, capsys, command):
        # two phases at 2 and 6: clamped to 1 before the log, they would
        # be one flat phase
        f = np.where(np.indices((32, 32)).sum(axis=0) < 32, 2.0, 6.0)
        f += 0.05 * np.random.default_rng(0).standard_normal(f.shape)
        imgio.write_float_grid(f, tmp_path / "f.csv")
        assert main([command, str(tmp_path / "f.csv"), str(tmp_path / "out" / "x"),
                     "--alpha", "0.5", "--beta", "1000", "--log-domain"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: log_domain (--log-domain)") and "(0, 1]" in err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["f.csv"]

    @pytest.mark.parametrize("command", ["run", "decompose"])
    def test_log_domain_rejects_negative_values(self, tmp_path, capsys, command):
        # an image already in the log domain: raised to 1e-4 before the
        # log, every pixel would be one flat phase
        f = np.where(np.indices((32, 32)).sum(axis=0) < 32, np.log(0.3), np.log(0.8))
        imgio.write_float_grid(f, tmp_path / "f.csv")
        assert main([command, str(tmp_path / "f.csv"), str(tmp_path / "out" / "x"),
                     "--alpha", "0.5", "--beta", "1000", "--log-domain"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: log_domain (--log-domain)") and "(0, 1]" in err
        assert "minimum" in err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["f.csv"]

    def test_metrics_null_js_for_phase_in_neither_label_map(self, tmp_path):
        imgio.write_labels(np.array([[1, 1], [2, 2]]), tmp_path / "a.csv")
        imgio.write_labels(np.array([[1, 2], [1, 2]]), tmp_path / "b.csv")
        code = main(["metrics", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"),
                     str(tmp_path / "r.json"), "-K", "3"])
        assert code == 0
        phases = json.loads((tmp_path / "r.json").read_text())["phases"]
        assert [p["js"] for p in phases] == [1 / 3, 1 / 3, None]

    def test_metrics_null_cv_for_phase_of_mean_zero(self, tmp_path):
        # u is 0 on the background: its cv is undefined, and the report
        # still holds both Jaccard scores and the square's cv
        truth = np.ones((16, 16), dtype=int)
        truth[4:12, 4:12] = 2
        imgio.write_float_grid(truth - 1.0, tmp_path / "f.csv")
        imgio.write_labels(truth, tmp_path / "t.csv")
        assert main(["metrics", str(tmp_path / "f.csv"), str(tmp_path / "t.csv"),
                     str(tmp_path / "r.json")]) == 0
        phases = json.loads((tmp_path / "r.json").read_text())["phases"]
        assert phases == [{"phase": 1, "js": 1.0, "cv": None},
                          {"phase": 2, "js": 1.0, "cv": 0.0}]

    def test_metrics_single_phase_truth_with_label_input_succeeds(self, tmp_path):
        imgio.write_labels(np.ones((2, 2), dtype=int), tmp_path / "t.csv")
        code = main(["metrics", str(tmp_path / "t.csv"), str(tmp_path / "t.csv"),
                     str(tmp_path / "r.json")])
        assert code == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["k"] == 1 and report["phases"][0]["js"] == 1.0

    def test_unknown_config_key_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 1.0, "beta": 1.0, "zeta": 3}))
        code = main(["decompose", str(tmp_path / "f.csv"), str(tmp_path / "x"),
                     "--config", str(cfg)])
        assert code == 2
        assert "zeta" in capsys.readouterr().err

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_bad_synth_spec_is_runtime_error(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n": 8, "phase_values": [0.5], "blur": 1}))
        assert main(["synth", str(spec), str(tmp_path / "p")]) == 1
        assert "blur" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change, key",
        [
            ({"shapes": [1]}, "shapes"),
            ({"phase_values": [0.5, 0.9],
              "shapes": [{"type": "disk", "row": 4, "col": 4, "radius": 2, "phase": 2,
                          "colour": "red"}]}, "colour"),
            ({"n": "8"}, "n must be an integer"),
            ({"n": 8.5}, "n must be an integer"),
            ({"phase_values": 0.5}, "phase_values must be a list of numbers"),
            ({"shapes": [{"type": "rect", "row0": 1, "col0": 1, "row1": 3, "phase": 1}]},
             "missing required rect keys: ['col1']"),
            ({"shapes": [{"type": ["disk"]}]}, "unknown shape type"),
            ({"bias_kind": 5}, "unknown bias kind 5"),
            ({"shapes": 5}, "shapes must be a list, got 5"),
            ({"phase_values": ["0.3"]}, "phase_values must be a list of numbers, got ['0.3']"),
            ({"phase_values": [0.3, 10**400]}, "phase values must lie in (0, 1], got [0.3, 1000"),
        ],
        ids=["shape_not_object", "disk_extra_key", "n_string", "n_float", "phase_values_scalar",
             "rect_missing_key", "shape_type_not_string", "bias_kind_int", "shapes_int",
             "phase_values_strings", "phase_values_int_beyond_float"],
    )
    def test_malformed_synth_spec_is_runtime_error(self, tmp_path, capsys, change, key):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n": 8, "phase_values": [0.5], **change}))
        assert main(["synth", str(spec), str(tmp_path / "p")]) == 1
        assert key in capsys.readouterr().err
        assert not list(tmp_path.glob("p*"))

    @pytest.mark.parametrize("key, literal", [("noise_sigma", "NaN"),
                                              ("bias_amplitude", "Infinity")])
    def test_non_finite_synth_spec_is_runtime_error(self, tmp_path, capsys, key, literal):
        spec = tmp_path / "spec.json"
        spec.write_text(f'{{"n": 8, "phase_values": [0.3, 0.8], "bias_kind": "linear_ramp", '
                        f'"{key}": {literal}}}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["synth", str(spec), str(tmp_path / "p")]) == 1
        assert f"{key} must be finite" in capsys.readouterr().err
        assert not list(tmp_path.glob("p*"))

    @pytest.mark.parametrize("shape, key", [
        ('"type": "disk", "row": NaN, "col": 4, "radius": 3', "row"),
        ('"type": "disk", "row": 4, "col": 4, "radius": -Infinity', "radius"),
        ('"type": "rect", "row0": 1, "col0": 1, "row1": Infinity, "col1": 5', "row1"),
    ], ids=["disk_row_nan", "disk_radius_minus_inf", "rect_row1_inf"])
    def test_non_finite_synth_shape_is_runtime_error(self, tmp_path, capsys, shape, key):
        spec = tmp_path / "spec.json"
        spec.write_text(f'{{"n": 8, "phase_values": [0.3, 0.8], "shapes": [{{{shape}, "phase": 2}}]}}')
        assert main(["synth", str(spec), str(tmp_path / "p")]) == 1
        assert f"{key} must be finite" in capsys.readouterr().err
        assert not list(tmp_path.glob("p*"))

    @pytest.mark.parametrize("command, key, code", [
        ("run", "alpha", 2), ("synth", "noise_sigma", 1),
    ])
    def test_an_int_too_large_for_a_float_is_named(self, tmp_path, capsys, command, key, code):
        big = 10**400  # 401 digits: float() overflows
        path = tmp_path / "in.json"
        if command == "run":
            path.write_text(json.dumps({"alpha": big, "beta": 1}))
            argv = ["run", "x.csv", str(tmp_path / "p"), "--config", str(path)]
        else:
            path.write_text(json.dumps({"n": 8, "phase_values": [0.5], "noise_sigma": big}))
            argv = ["synth", str(path), str(tmp_path / "p")]
        assert main(argv) == code
        assert capsys.readouterr().err.startswith(f"error: {key} must be finite")
        assert not list(tmp_path.glob("p*"))

    def test_negative_synth_seed_is_runtime_error(self, tmp_path, capsys):
        # numpy's own "expected non-negative integer" would name neither
        # the key nor the file
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n": 8, "phase_values": [0.5], "seed": -1}))
        assert main(["synth", str(spec), str(tmp_path / "p")]) == 1
        assert capsys.readouterr().err == "error: seed must be at least 0, got -1\n"
        assert not list(tmp_path.glob("p*"))


class TestPrintConfig:
    def test_echoes_resolved_config_without_writing(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 0.5, "beta": 2.0}))
        out_prefix = tmp_path / "never"
        code = main(["run", str(tmp_path / "absent.csv"), str(out_prefix),
                     "--config", str(cfg), "--alpha", "0.7", "--print-config"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["alpha"] == 0.7  # flag wins over the file
        assert payload["beta"] == 2.0
        assert not list(tmp_path.glob("never*"))

    def test_json_ints_echo_as_floats_in_float_fields_only(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 1, "beta": 2, "maxit_in": 7}))
        assert main(["run", "x.csv", "y", "--config", str(cfg), "--print-config"]) == 0
        out = capsys.readouterr().out
        assert '"alpha": 1.0,' in out and '"beta": 2.0,' in out and '"maxit_in": 7,' in out

    def test_every_field_is_a_run_flag(self, capsys):
        """Each RunConfig field is set by its flag and echoed under its JSON key."""
        argv = ["run", "x.csv", "y", "--print-config"]
        keys = {name: key for key, name in cli.CONFIG_KEYS.items()}
        types = get_type_hints(cli.RunConfig)
        want = {}
        for i, f in enumerate(fields(cli.RunConfig)):
            key = keys[f.name]
            flag = "-K" if key == "K" else "--" + f.name.replace("_", "-")
            if types[f.name] is bool:
                argv.append(flag)
                want[key] = True
            else:
                # distinct per field, so a flag stored under the wrong key shows
                value = i + 2 if types[f.name] is int else (i + 1) / 64
                argv += [flag, str(value)]
                want[key] = value
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == want
        defaults = cli.config_to_dict(cli.RunConfig(alpha=1.0, beta=1.0))
        assert all(payload[key] != defaults[key] for key in want
                   if key not in ("alpha", "beta"))

    def test_seed_key_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 1.0, "beta": 1.0, "seed": 42}))
        code = main(["decompose", "x.csv", "y", "--config", str(cfg), "--print-config"])
        assert code == 2
        assert "unknown config keys: ['seed']" in capsys.readouterr().err


def _report_keys(payload) -> set:
    """Every key of a report, the keys of its per-phase entries included."""
    keys = set(payload)
    for entry in payload.get("phases", []):
        keys |= set(entry)
    return keys


def test_readme_names_every_flag_config_key_and_report_key(workspace, tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    options = {
        option
        for action in cli.build_parser()._subparsers._group_actions
        for sub in action.choices.values()
        for opt in sub._actions
        for option in opt.option_strings
    } - {"-h", "--help"}
    assert {"--gamma", "--no-log-domain", "--phases", "--truth"} <= options
    missing = [option for option in sorted(options)
               if not re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", readme)]
    assert main(["metrics", str(workspace / "out_u.csv"), str(workspace / "ph_truth.csv"),
                 str(tmp_path / "r.json"), "-K", "2"]) == 0
    keys = set(cli.CONFIG_KEYS) | _report_keys(
        json.loads((workspace / "out_report.json").read_text())) | _report_keys(
        json.loads((tmp_path / "r.json").read_text()))
    missing += [key for key in sorted(keys) if f"`{key}`" not in readme]
    assert not missing, f"README.md does not mention {missing}"


def test_report_keys_come_in_the_readme_order(workspace, tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    paragraph = readme.split("`report.json` holds ", 1)[1].split("\n\n", 1)[0]
    paragraph = re.sub(r"\([^)]*\)", "", paragraph)  # asides name settings, not keys
    base, added = (re.findall(r"`(\w+)`", part) for part in paragraph.split("`run` adds", 1))
    assert added[:5] == ["k", "phases", "phase", "js", "cv"]
    with capped_solves():
        assert main(["decompose", str(workspace / "ph_f.csv"), str(tmp_path / "dec"),
                     "--config", str(workspace / "cfg.json")]) == 0
    assert list(json.loads((tmp_path / "dec_report.json").read_text())) == base
    run = json.loads((workspace / "out_report.json").read_text())  # run --truth
    assert list(run) == base + added[:2]
    assert all(list(entry) == added[2:5] for entry in run["phases"])


def test_readme_configuration_table_holds_every_key_with_its_default():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = [[cell.strip() for cell in line.split("|")[1:-1]]
            for line in readme.splitlines() if line.startswith("| `")]
    defaults = cli.config_to_dict(cli.config_from_dict({"alpha": 1, "beta": 1}))
    table = {key.strip("`"): default for key, _, default, *_ in rows}
    assert sorted(table) == sorted(cli.CONFIG_KEYS)
    for key, default in table.items():
        if key in ("alpha", "beta"):
            assert default == "required"
        else:  # the type too: 10.0 for a float, 100 for an int, false for a bool
            value = json.loads(default.strip("`"))
            assert (value, type(value)) == (defaults[key], type(defaults[key])), key


ROOT_API = {
    "AdmmParams", "DecompositionResult", "Disk", "IterationTrace", "ModelParams",
    "OuterParams", "Phantom", "PhantomSpec", "Rect", "SegmentationResult", "TraceRow",
    "cv", "decompose_image", "decomposition_energy", "generate", "jaccard", "kmeans_1d",
    "segment",
}
SOLVER_LAYERS = {
    "admm": ("InnerResult", "admm_solve", "solve_uv"),
    "decompose": ("decompose",),
    "grid": ("OperatorSymbols", "compute_symbols", "grad", "grad_adjoint", "grad_norms"),
    "reduced": ("reduced_solve",),
    "support": ("SupportSet", "detect_support", "initial_support", "project_to_support"),
    "synth": ("gaussian_field",),
}


def _readme_section(heading):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split(f"## {heading}\n", 1)[1].split("\n## ", 1)[0]


def test_package_root_exports_the_readme_api_only():
    words = set(re.findall(r"\w+", _readme_section("Python API")))
    assert sorted(shrinkseg.__all__) == sorted(ROOT_API)
    assert ROOT_API <= words
    for module, names in SOLVER_LAYERS.items():
        imported = importlib.import_module(f"shrinkseg.{module}")
        for name in names:
            # no solver layer at the root, where shrinkseg.decompose is the module itself
            assert hasattr(imported, name) and name in words, name
            assert getattr(shrinkseg, name, imported) is imported, name


def test_the_decompose_module_is_not_shadowed(monkeypatch):
    import shrinkseg.decompose as stage_one

    assert stage_one is sys.modules["shrinkseg.decompose"]
    assert stage_one.__doc__.startswith("Outer support-shrinking loop")
    original, calls = stage_one.admm_solve, []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(stage_one, "admm_solve", counted)
    f = np.add.outer(np.arange(8.0), np.arange(8.0)) / 16
    decompose_image(f, shrinkseg.ModelParams(alpha=0.1, beta=10.0))
    assert calls and np.array_equal(calls[0][0], f)


def test_run_config_lives_in_the_cli_module_only():
    from shrinkseg.cli import RunConfig

    assert RunConfig is cli.RunConfig
    assert "__getattr__" not in vars(shrinkseg)
    assert not hasattr(shrinkseg, "RunConfig")


def _quick_start_files(block):
    """The heredoc bodies of the README's quick start, by file name."""
    return dict(re.findall(r"cat > (\S+) <<'EOF'\n(.*?\n)EOF\n", block, re.S))


def test_readme_quick_start_runs_and_segments_its_phantom(tmp_path):
    block = _readme_section("Quick start").split("```\n", 2)[1]
    files = _quick_start_files(block)
    assert sorted(files) == ["config.json", "spec.json"]
    for name, body in files.items():
        (tmp_path / name).write_text(body)
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("shrinkseg ")]
    assert [command[1] for command in commands] == ["synth", "run"]
    for command in commands:
        proc = subprocess.run([sys.executable, "-m", "shrinkseg.cli", *command[1:]],
                              capture_output=True, text=True, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "work" / "result_report.json").read_text())
    assert min(phase["js"] for phase in report["phases"]) >= 0.99


def test_readme_python_example_segments_the_quick_start_phantom(capsys):
    spec = json.loads(_quick_start_files(_readme_section("Quick start"))["spec.json"])
    phantom = shrinkseg.generate(imgio.phantom_spec_from_dict(spec))
    block = _readme_section("Python API").split("```python\n", 1)[1].split("```\n", 1)[0]
    source, placeholders = re.subn(r"^f = \.\.\..*\n", "", block, flags=re.M)
    assert placeholders == 1
    namespace = {"f": phantom.f / phantom.f.max()}
    exec(source, namespace)
    labels = namespace["labels"]
    assert min(shrinkseg.jaccard(labels == k, phantom.truth_labels == k) for k in (1, 2)) >= 0.99
    assert capsys.readouterr().out.count("\n") == len(namespace["result"].trace)


def test_module_entrypoint_help_exits_zero():
    proc = subprocess.run(
        [sys.executable, "-m", "shrinkseg.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "synth" in proc.stdout and "metrics" in proc.stdout
    assert proc.stderr == ""  # the package does not import shrinkseg.cli ahead of runpy


def test_import_leaves_scipy_unloaded():
    # every CLI call pays for what `import shrinkseg.cli` loads
    proc = subprocess.run(
        [
            sys.executable, "-c",
            "import sys, shrinkseg, shrinkseg.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
