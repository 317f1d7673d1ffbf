"""Seeded inputs, timed operations and output checks for each workload.

An operation is one image through the pipeline (suite64) or
one CLI command (cli_stage2). Its timed call goes through module
attributes of shrinkseg, looked up at call time, so the tracer in
tracing.py can wrap them. Checks run after the timer stops and raise
CheckFailed with the reason.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from shrinkseg import AdmmParams, ModelParams, OuterParams, cv, generate, jaccard
from shrinkseg import cli as CLI
from shrinkseg import imgio
from shrinkseg import threshold as THRESHOLD

DECOMPOSE = importlib.import_module("shrinkseg.decompose")


class CheckFailed(Exception):
    pass


@dataclass
class Op:
    """One timed call on one input.

    key names the input, so repeats of it can be told apart and its
    outputs compared. check returns the quality numbers of the output
    (js_min, cv_max, energy); digest returns bytes that must not change
    between repeats or between traced and untraced runs.
    """

    key: str
    pixels: int
    run: Callable[[], object]
    check: Callable[[object], dict]
    digest: Callable[[object], bytes]


def offset_seed(base: int, seed: int) -> int:
    """Seed 0 keeps a phantom's pinned noise seed; others shift it."""
    return (base + seed) % 2**63


def load_spec(root: Path) -> dict:
    with open(root / "perfbench" / "workloads.json", encoding="utf-8") as handle:
        return json.load(handle)


def _phantom(spec_dict: dict, seed: int):
    spec = imgio.phantom_spec_from_dict(
        {**spec_dict, "seed": offset_seed(spec_dict["seed"], seed)}
    )
    return generate(spec)


def _phase_quality(u, labels, truth, k) -> tuple[float, float]:
    js, spread = [], []
    for phase in range(1, k + 1):
        region = truth == phase
        js.append(jaccard(labels == phase, region))
        spread.append(abs(cv(u, region)))
    return min(js), max(spread)


def _pipeline_op(key, spec_dict, alpha, beta, k, solver, seed, js_floor) -> Op:
    phantom = _phantom(spec_dict, seed)
    g = imgio.to_log_domain(phantom.f / phantom.f.max())
    model = ModelParams(alpha=alpha, beta=beta)
    outer = OuterParams(
        tol_out=solver["tol_out"],
        maxit_out=solver["maxit_out"],
        tau_supp=solver["tau_supp"],
    )
    admm = AdmmParams(r=solver["r"], tol_in=solver["tol_in"], maxit_in=solver["maxit_in"])

    def run():
        result = DECOMPOSE.decompose(g, model, outer, admm)
        u = imgio.from_log_domain(result.u)
        return result, u, THRESHOLD.segment(u, k)

    def check(out) -> dict:
        result, u, seg = out
        if not (np.isfinite(result.u).all() and np.isfinite(result.v).all()):
            raise CheckFailed("u or v not finite")
        if result.energy_increased:
            raise CheckFailed("energy increased")
        if np.any(np.diff(result.trace.column("support_size")) > 0):
            raise CheckFailed("support grew")
        js_min, cv_max = _phase_quality(u, seg.labels, phantom.truth_labels, k)
        if js_min < js_floor:
            raise CheckFailed(f"Jaccard {js_min:.4f} below floor {js_floor}")
        return {"js_min": js_min, "cv_max": cv_max, "energy": result.trace[-1].energy}

    def digest(out) -> bytes:
        result, _, seg = out
        return result.u.tobytes() + result.v.tobytes() + seg.labels.tobytes()

    n = spec_dict["n"]
    return Op(key, n * n, run, check, digest)


def suite64(root: Path, spec: dict, seed: int, tiny: bool = False) -> list[Op]:
    entry = spec["workloads"]["suite64"]
    with open(root / entry["fixture"], encoding="utf-8") as handle:
        fixture = json.load(handle)
    solver = dict(fixture["solver"])
    suite = fixture["suite"]
    if tiny:
        solver.update(maxit_in=3, maxit_out=2)
        suite = suite[:2]
    return [
        _pipeline_op(
            e["name"], e["spec"], e["alpha"], e["beta"], e["k"],
            solver, seed, 0.0 if tiny else entry["js_floor"],
        )
        for e in suite
    ]


def _shrunk(spec_dict: dict, n: int) -> dict:
    """The same phantom geometry rescaled to an n x n grid."""
    scale = n / spec_dict["n"]
    shapes = [
        {key: (int(val * scale) if key not in ("type", "phase") else val)
         for key, val in shape.items()}
        for shape in spec_dict["shapes"]
    ]
    return {**spec_dict, "n": n, "shapes": shapes}


def _check_clusters(u, labels, k) -> float:
    """Labels must be the midpoint thresholding of their own cluster means.

    Returns the within-cluster sum of squares. A pixel whose value lies
    within rounding of a threshold may fall on either side.
    """
    if labels.shape != u.shape:
        raise CheckFailed("label and input shapes disagree")
    if labels.min() < 1 or labels.max() > k:
        raise CheckFailed(f"labels outside 1..{k}")
    flat_u, flat_l = u.ravel(), labels.ravel()
    order = np.argsort(flat_u, kind="stable")
    if np.any(np.diff(flat_l[order]) < 0):
        raise CheckFailed("labels not monotone in value")
    counts = np.bincount(flat_l, minlength=k + 1)[1:]
    if np.any(counts == 0):
        raise CheckFailed("empty cluster")
    means = np.bincount(flat_l, weights=flat_u, minlength=k + 1)[1:] / counts
    thresholds = (means[:-1] + means[1:]) / 2.0
    expected = 1 + np.searchsorted(thresholds, flat_u, side="left")
    off = expected != flat_l
    if off.any():
        gap = np.abs(flat_u[off, None] - thresholds[None, :]).min(axis=1)
        if np.any(gap > 1e-12 * np.abs(flat_u).max()):
            raise CheckFailed("labels disagree with midpoints of their cluster means")
    return float(np.sum((flat_u - means[flat_l - 1]) ** 2))


def cli_stage2(root: Path, spec: dict, seed: int, workdir: Path, tiny: bool = False) -> list[Op]:
    entry = spec["workloads"]["cli_stage2"]
    phantom_spec = _shrunk(entry["spec"], 16) if tiny else entry["spec"]
    phantom = _phantom(phantom_spec, seed)
    u = phantom.f
    truth = phantom.truth_labels
    workdir.mkdir(parents=True, exist_ok=True)
    u_csv = str(workdir / "u.csv")
    truth_csv = str(workdir / "truth.csv")
    imgio.write_float_grid(u, u_csv)
    imgio.write_labels(truth, truth_csv)
    # the CSV round-trips every bit, so checks can use u directly
    if not np.array_equal(imgio.read_float_grid(u_csv), u):
        raise CheckFailed("float grid did not round-trip")
    n = u.shape[0]
    js_floor = 0.0 if tiny else entry["js_floor"]

    def command(argv):
        def run():
            return CLI.main(argv)
        return run

    def segment_op(k: int) -> Op:
        prefix = str(workdir / f"seg{k}_")
        outputs = (prefix + "labels.csv", prefix + "labels.pgm")

        def check(code) -> dict:
            if code != 0:
                raise CheckFailed(f"segment K={k} exited {code}")
            labels = imgio.read_labels(outputs[0])
            return {"energy": _check_clusters(u, labels, k)}

        return Op(
            f"segment_k{k}", n * n, command(["segment", u_csv, str(k), prefix]),
            check, lambda code: _read_all(code, outputs),
        )

    report = str(workdir / "metrics.json")

    def check_metrics(code) -> dict:
        if code != 0:
            raise CheckFailed(f"metrics exited {code}")
        with open(report, encoding="utf-8") as handle:
            phases = json.load(handle)["phases"]
        if len(phases) != int(truth.max()):
            raise CheckFailed("metrics report has the wrong phase count")
        js_min = min(p["js"] for p in phases)
        if js_min < js_floor:
            raise CheckFailed(f"Jaccard {js_min:.4f} below floor {js_floor}")
        return {"js_min": js_min, "cv_max": max(abs(p["cv"]) for p in phases)}

    ops = [segment_op(k) for k in entry["segment_k"]]
    ops.append(
        Op(
            "metrics", n * n, command(["metrics", u_csv, truth_csv, report]),
            check_metrics, lambda code: _read_all(code, (report,)),
        )
    )
    return ops


def _read_all(code, paths) -> bytes:
    return repr(code).encode() + b"".join(Path(p).read_bytes() for p in paths)


def build(name: str, root: Path, seed: int, workdir: Path, tiny: bool = False) -> list[Op]:
    spec = load_spec(root)
    if name == "cli_stage2":
        return cli_stage2(root, spec, seed, workdir, tiny)
    return suite64(root, spec, seed, tiny)


def computed_bytes(name: str, ops: list[Op]) -> dict:
    """Array sizes from shapes alone (labelled computed: no cache effects).

    On suite64 one ADMM iteration holds about 13 float64 grids (f, u_k,
    u, v, thresholds, mu and q pairs, gradient pair, right-hand side)
    and 4 complex128 spectra.
    """
    grid = 8 * max(op.pixels for op in ops)
    if name == "cli_stage2":
        return {"grid_bytes": grid, "label": "computed"}
    return {
        "grid_bytes": grid,
        "admm_working_set_bytes": 13 * grid + 4 * 2 * grid,
        "label": "computed",
    }
