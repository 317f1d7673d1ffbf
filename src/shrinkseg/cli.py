"""Command-line surface: phantom synthesis, decomposition, labeling, metrics.

Every command resolves its settings up front (defaults, then config
file, then explicit flags), computes all results in memory, and only
then writes outputs through atomic renames, so interrupted runs never
leave partial artifacts. Exit codes: 0 success, 1 runtime failure, 2
usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import imgio
from .admm import AdmmParams
from .decompose import DecompositionResult, OuterParams, decompose_image
from .energy import ModelParams
from .grid import check_count, check_keys
from .metrics import cv, jaccard
from .synth import generate
from .threshold import segment


@dataclass(frozen=True)
class RunConfig:
    """Tunable weights plus solver and pipeline settings for one run.

    alpha and beta have no defaults on purpose: they are per-image
    tuning knobs. The solver settings default to those of the classes
    they configure. JSON uses the key "K" for the phase count.
    """

    alpha: float
    beta: float
    gamma: float = ModelParams.gamma
    rho: float = OuterParams.rho
    p: float = ModelParams.p
    r: float = AdmmParams.r
    tol_in: float = AdmmParams.tol_in
    tol_out: float = OuterParams.tol_out
    maxit_in: int = AdmmParams.maxit_in
    maxit_out: int = OuterParams.maxit_out
    k: int = 2
    log_domain: bool = False

    def __post_init__(self):  # the classes configured check their own fields
        self.model_params(), self.outer_params(), self.admm_params()
        check_count(self.k, "K", 2)
        if not isinstance(self.log_domain, bool):
            raise ValueError(f"log_domain must be boolean, got {self.log_domain!r}")

    def model_params(self) -> ModelParams:
        return ModelParams(alpha=self.alpha, beta=self.beta, gamma=self.gamma, p=self.p)

    def outer_params(self) -> OuterParams:
        return OuterParams(rho=self.rho, tol_out=self.tol_out, maxit_out=self.maxit_out)

    def admm_params(self) -> AdmmParams:
        return AdmmParams(r=self.r, tol_in=self.tol_in, maxit_in=self.maxit_in)


# JSON key -> RunConfig field; CLI flags store under the field names
CONFIG_KEYS = {("K" if f.name == "k" else f.name): f.name for f in fields(RunConfig)}
_FIELD_TYPES = get_type_hints(RunConfig)
_FLAG_HELP = {"alpha": "gradient penalty weight", "beta": "smoothness weight",
              "p": "penalty exponent in (0,1)", "r": "splitting penalty weight"}


def config_from_dict(payload: dict) -> RunConfig:
    check_keys(RunConfig, payload, "config", CONFIG_KEYS)
    config = RunConfig(**{CONFIG_KEYS[key]: value for key, value in payload.items()})
    # a JSON int in a float field reads as a float; the checks passed, so it fits one
    return replace(config, **{name: float(value) for name, value in asdict(config).items()
                              if type(value) is int and _FIELD_TYPES[name] is float})


def config_to_dict(config: RunConfig) -> dict:
    payload = asdict(config)
    payload["K"] = payload.pop("k")
    return payload


def _prepare_prefix(prefix: str) -> str:
    # "out/run" names files out/run_f.csv etc.; a trailing separator
    # (slash, underscore, dash, dot) is kept as given
    if prefix and prefix[-1] not in "/_-.":
        prefix += "_"
    parent = Path(prefix + "x").parent
    parent.mkdir(parents=True, exist_ok=True)
    return prefix


def _phase_count(text: str) -> int:
    """argparse type for K: an integer of at least 2 (a usage error otherwise)."""
    try:
        k = int(text)
    except ValueError:
        k = text
    try:
        return check_count(k, "K", 2)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_config_flags(parser: argparse.ArgumentParser, with_k: bool) -> None:
    parser.add_argument("--config", help="JSON config file; flags override it")
    for name, kind in _FIELD_TYPES.items():
        if kind in (float, int) and name != "k":  # K and the log domain have flags of their own
            parser.add_argument("--" + name.replace("_", "-"), dest=name, type=kind,
                                help=_FLAG_HELP.get(name))
    if with_k:
        parser.add_argument(
            "-K", "--phases", dest="k", type=_phase_count, help="phase count"
        )
    parser.add_argument(
        "--log-domain",
        dest="log_domain",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="decompose the log of the input, which must lie in (0, 1], "
        "and exponentiate u and v",
    )
    parser.add_argument(
        "--print-config",
        action="store_true",
        help="echo the fully resolved configuration as JSON and exit",
    )


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    payload = imgio.read_json_object(args.config, "config") if args.config else {}
    for key, name in CONFIG_KEYS.items():
        value = getattr(args, name, None)
        if value is not None:
            payload[key] = value
    return config_from_dict(payload)


def _write_decomposition(
    prefix: str, result: DecompositionResult, u: np.ndarray, v: np.ndarray
) -> None:
    imgio.write_float_grid(u, prefix + "u.csv")
    imgio.write_float_grid(v, prefix + "v.csv")
    imgio.write_image(u, prefix + "u.pgm")
    imgio.write_image(v, prefix + "v.pgm")
    imgio.write_trace(result.trace, prefix + "trace.csv")


def _check_shapes(grid: np.ndarray, path: str, truth: np.ndarray, truth_path: str) -> None:
    if grid.shape != truth.shape:
        raise ValueError(f"label shapes disagree: {path} has shape {grid.shape}, "
                         f"{truth_path} has shape {truth.shape}")


def _check_labels(labels: np.ndarray, path: str, k: int | None) -> np.ndarray:
    """labels, once none is below 1 or above k (if given); ValueError naming path otherwise."""
    low, high = int(labels.min()), int(labels.max())
    if low < 1 or (k is not None and high > k):
        raise ValueError(f"{path} holds label {low if low < 1 else high}, outside 1..{k or 'K'}")
    return labels


def _phase_report(
    labels: np.ndarray, k: int, truth: np.ndarray, u: np.ndarray | None
) -> list[dict]:
    """JS per phase, plus CV of u over the phase's true region.

    JS is null for a phase that neither the labels nor the truth hold.
    CV is null where cv rejects the region: the truth lacks the phase, or
    u's mean over it lies within 1e-12 of zero.
    """
    phases = []
    for phase in range(1, k + 1):
        mask, truth_mask = labels == phase, truth == phase
        entry: dict = {"phase": phase}
        entry["js"] = jaccard(mask, truth_mask) if (mask | truth_mask).any() else None
        if u is not None:
            try:  # the callers have matched the shapes of u and the truth
                entry["cv"] = cv(u, truth_mask)
            except ValueError:
                entry["cv"] = None
        phases.append(entry)
    return phases


def _cmd_synth(args: argparse.Namespace) -> int:
    spec = imgio.phantom_spec_from_dict(
        imgio.read_json_object(args.spec_json, "phantom spec")
    )
    phantom = generate(spec)
    prefix = _prepare_prefix(args.out_prefix)
    imgio.write_float_grid(phantom.f, prefix + "f.csv")
    imgio.write_image(phantom.f, prefix + "f.pgm")
    imgio.write_labels(phantom.truth_labels, prefix + "truth.csv")
    imgio.write_float_grid(phantom.clean_u, prefix + "clean.csv")
    imgio.write_float_grid(phantom.bias_v, prefix + "bias.csv")
    return 0


# the counts report.json takes from a DecompositionResult, in the report's order
_RESULT_KEYS = ("converged", "outer_iters", "capped_solves", "reduced_solves",
                "reduced_declines", "energy_increased", "energy_rises")


def _base_report(config: RunConfig, result: DecompositionResult) -> dict:
    report = {key: getattr(result, key) for key in _RESULT_KEYS}
    return {**report, "final_energy": result.trace[-1].energy, "log_domain": config.log_domain}


def _cmd_decompose(args: argparse.Namespace) -> int:
    config = args.resolved_config
    f = imgio.read_grid(args.input)
    result, u, v = decompose_image(
        f, config.model_params(), config.outer_params(), config.admm_params(), config.log_domain
    )
    prefix = _prepare_prefix(args.out_prefix)
    _write_decomposition(prefix, result, u, v)
    imgio.write_report(_base_report(config, result), prefix + "report.json")
    return 0


def _cmd_segment(args: argparse.Namespace) -> int:
    u = imgio.read_grid(args.input_u)
    seg = segment(u, args.k)
    prefix = _prepare_prefix(args.out_prefix)
    imgio.write_labels(seg.labels, prefix + "labels.csv")
    imgio.write_image(seg.labels / seg.k, prefix + "labels.pgm")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = args.resolved_config
    f = imgio.read_grid(args.input)
    truth = imgio.read_labels(args.truth) if args.truth else None
    if truth is not None:
        _check_shapes(f, args.input, truth, args.truth)
        _check_labels(truth, args.truth, config.k)
    result, u, v = decompose_image(
        f, config.model_params(), config.outer_params(), config.admm_params(), config.log_domain
    )
    try:
        seg = segment(u, config.k)
    except ValueError:
        if (distinct := np.unique(u).size) >= config.k:
            raise
        if (held := np.unique(f).size) < config.k:  # f itself cannot hold K phases
            raise ValueError(f"{args.input} holds {held} distinct value(s), fewer than "
                             f"K={config.k}") from None
        raise ValueError(f"u came out flat: {distinct} distinct value(s), fewer than "
                         f"K={config.k}; lower alpha (--alpha)") from None
    report = _base_report(config, result)
    report["k"] = config.k
    if truth is not None:
        report["phases"] = _phase_report(seg.labels, seg.k, truth, u)

    prefix = _prepare_prefix(args.out_prefix)
    imgio.write_image(f, prefix + "f.pgm")
    _write_decomposition(prefix, result, u, v)
    imgio.write_labels(seg.labels, prefix + "labels.csv")
    imgio.write_image(seg.labels / seg.k, prefix + "labels.pgm")
    imgio.write_report(report, prefix + "report.json")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    truth = _check_labels(imgio.read_labels(args.truth_labels), args.truth_labels, args.k)
    k = args.k if args.k is not None else int(truth.max())
    try:
        labels, u = imgio.read_labels(args.input), None
    except ValueError:
        labels, u = None, imgio.read_grid(args.input)
        if k < 2:
            print(f"error: K={k} was taken from the truth file; pass -K >= 2", file=sys.stderr)
            return 2
    _check_shapes(u if labels is None else labels, args.input, truth, args.truth_labels)
    labels = segment(u, k).labels if labels is None else _check_labels(labels, args.input, k)

    report = {"k": k, "phases": _phase_report(labels, k, truth, u)}
    imgio.write_report(report, args.report_path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shrinkseg",
        description="Two-stage segmentation of intensity-inhomogeneous images",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a ground-truthed phantom")
    p_synth.add_argument("spec_json")
    p_synth.add_argument("out_prefix")
    p_synth.set_defaults(func=_cmd_synth)

    p_dec = sub.add_parser("decompose", help="stage one only")
    p_dec.add_argument("input", help="PGM or float CSV image")
    p_dec.add_argument("out_prefix")
    _add_config_flags(p_dec, with_k=False)
    p_dec.set_defaults(func=_cmd_decompose)

    p_seg = sub.add_parser("segment", help="stage two only, on a corrected image")
    p_seg.add_argument("input_u", help="float CSV or PGM of the corrected image")
    p_seg.add_argument("k", type=_phase_count, help="number of phases")
    p_seg.add_argument("out_prefix")
    p_seg.set_defaults(func=_cmd_segment)

    p_run = sub.add_parser("run", help="full two-stage pipeline")
    p_run.add_argument("input", help="PGM or float CSV image")
    p_run.add_argument("out_prefix")
    _add_config_flags(p_run, with_k=True)
    p_run.add_argument("--truth", help="truth label CSV; adds JS/CV to the report")
    p_run.set_defaults(func=_cmd_run)

    p_met = sub.add_parser("metrics", help="JS/CV report against truth labels")
    p_met.add_argument("input", help="label CSV, float CSV, or PGM")
    p_met.add_argument("truth_labels", help="label CSV")
    p_met.add_argument("report_path")
    p_met.add_argument("-K", "--phases", dest="k", type=_phase_count, default=None)
    p_met.set_defaults(func=_cmd_metrics)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    if hasattr(args, "config"):
        # bad settings are usage errors, distinct from runtime failures
        try:
            args.resolved_config = _resolve_config(args)
        except (OSError, ValueError, TypeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.print_config:
            print(json.dumps(config_to_dict(args.resolved_config), indent=2))
            return 0

    try:
        return args.func(args)
    except (OSError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
