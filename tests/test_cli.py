import json
import subprocess
import sys
from dataclasses import fields
from typing import get_type_hints

import numpy as np
import pytest

from shrinkseg import imgio
from shrinkseg.cli import main

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


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synth + full run shared by the read-only assertions below."""
    root = tmp_path_factory.mktemp("cli")
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(CONFIG))

    assert main(["synth", str(spec_path), str(root / "ph")]) == 0
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
        rows = imgio.read_trace(workspace / "out_trace.csv")
        capped = sum(row.inner_iters == CONFIG["maxit_in"] for row in rows)
        assert report["capped_solves"] == capped
        assert report["log_domain"] is True
        assert report["energy_increased"] is False
        assert report["k"] == 2
        assert [p["phase"] for p in report["phases"]] == [1, 2]
        assert all(p["js"] >= 0.9 for p in report["phases"])
        assert all(0.0 <= p["cv"] <= 0.2 for p in report["phases"])

    def test_segment_subcommand_reproduces_run_labels(self, workspace):
        assert main(["segment", str(workspace / "out_u.csv"), "2",
                     str(workspace / "seg")]) == 0
        seg = (workspace / "seg_labels.csv").read_bytes()
        assert seg == (workspace / "out_labels.csv").read_bytes()

    def test_decompose_subcommand(self, workspace):
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
        rows = imgio.read_trace(workspace / "out_trace.csv")
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

    def test_metrics_null_js_for_phase_in_neither_label_map(self, tmp_path):
        imgio.write_labels(np.array([[1, 1], [2, 2]]), tmp_path / "a.csv")
        imgio.write_labels(np.array([[1, 2], [1, 2]]), tmp_path / "b.csv")
        code = main(["metrics", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"),
                     str(tmp_path / "r.json"), "-K", "3"])
        assert code == 0
        phases = json.loads((tmp_path / "r.json").read_text())["phases"]
        assert [p["js"] for p in phases] == [1 / 3, 1 / 3, None]

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

    def test_every_field_is_a_run_flag(self, capsys):
        """Each RunConfig field is set by its flag and echoed under its JSON key."""
        argv = ["run", "x.csv", "y", "--print-config"]
        keys = {name: key for key, name in imgio.CONFIG_KEYS.items()}
        types = get_type_hints(imgio.RunConfig)
        want = {}
        for i, f in enumerate(fields(imgio.RunConfig)):
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
        defaults = imgio.config_to_dict(imgio.RunConfig(alpha=1.0, beta=1.0))
        assert all(payload[key] != defaults[key] for key in want
                   if key not in ("alpha", "beta"))

    def test_seed_key_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 1.0, "beta": 1.0, "seed": 42}))
        code = main(["decompose", "x.csv", "y", "--config", str(cfg), "--print-config"])
        assert code == 2
        assert "unknown config keys: ['seed']" in capsys.readouterr().err


def test_module_entrypoint_help_exits_zero():
    proc = subprocess.run(
        [sys.executable, "-m", "shrinkseg.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "synth" in proc.stdout and "metrics" in proc.stdout


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
