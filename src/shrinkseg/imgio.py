"""Bit-exact interchange: PGM images, CSV grids and traces, JSON configs.

Float grids serialize through repr(), whose shortest round-trip form
reads back bit-identically, so u and v survive disk without
quantization. Every writer goes through a temp-then-rename step so a
crashed run never leaves a truncated artifact behind.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .admm import AdmmParams
# the log-domain transform lives with decompose_image; imgio keeps its names
from .decompose import IterationTrace, OuterParams, from_log_domain, to_log_domain
from .energy import ModelParams
from .grid import Array, as_grid, check_count
from .synth import Disk, PhantomSpec, Rect

TRACE_HEADER = "k,F,increment,support_size,min_nonzero_grad,inner_iters"


def _atomic_write_bytes(path, data: bytes) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write_text(path, text: str) -> None:
    _atomic_write_bytes(path, text.encode("ascii"))


# ---------------------------------------------------------------------------
# PGM


def _read_pgm_header(data: bytes):
    """Magic, width, height, maxval; '#' comments allowed between tokens."""
    pos = 0

    def token() -> bytes:
        nonlocal pos
        while pos < len(data):
            if data[pos : pos + 1].isspace():
                pos += 1
            elif data[pos : pos + 1] == b"#":
                while pos < len(data) and data[pos : pos + 1] not in (b"\n", b"\r"):
                    pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError("truncated PGM header")
        return data[start:pos]

    magic = token()
    if magic not in (b"P2", b"P5"):
        raise ValueError(f"unsupported magic {magic!r}, want P2 or P5")
    width, height, maxval = int(token()), int(token()), int(token())
    if width < 1 or height < 1:
        raise ValueError(f"PGM width and height must be at least 1, got {width}x{height}")
    if not 1 <= maxval <= 65535:
        raise ValueError(f"PGM maxval must lie in 1..65535, got {maxval}")
    pos += 1  # single whitespace byte separates header from raster
    return magic, width, height, maxval, pos


def read_image(path) -> Array:
    """Read a PGM file into a height x width grid of intensities in [0, 1]."""
    data = Path(path).read_bytes()
    magic, width, height, maxval, pos = _read_pgm_header(data)
    count = width * height
    if magic == b"P5":
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        raster = data[pos : pos + count * dtype.itemsize]
        if len(raster) != count * dtype.itemsize:
            raise ValueError("truncated PGM raster")
        samples = np.frombuffer(raster, dtype=dtype).astype(np.float64)
    else:
        tokens = data[pos:].split()[:count]
        if len(tokens) != count:
            raise ValueError("truncated PGM raster")
        bad = next((t for t in tokens if not t.isdigit()), None)
        if bad is not None:
            sample = bad.decode("ascii", "replace")
            raise ValueError(f"P2 sample {sample!r} is not a nonnegative integer")
        samples = np.array(tokens, dtype=np.float64)
    if samples.max() > maxval:
        raise ValueError(f"sample above maxval {maxval}")
    return (samples / maxval).reshape(height, width)


def write_image(grid: Array, path) -> None:
    """Clamp to [0,1], quantize round-half-up to bytes, write binary PGM."""
    grid = as_grid(grid, "grid")
    height, width = grid.shape
    scaled = np.clip(grid, 0.0, 1.0)
    scaled *= 255.0  # in place: the same operations, one temporary
    scaled += 0.5
    quantized = np.floor(scaled, out=scaled).astype(np.uint8)
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    _atomic_write_bytes(path, header + quantized.tobytes())


# ---------------------------------------------------------------------------
# CSV grids, labels, traces


def write_float_grid(grid: Array, path) -> None:
    grid = as_grid(grid, "grid")
    lines = [",".join(repr(x) for x in row) for row in grid.tolist()]
    _atomic_write_text(path, "\n".join(lines) + "\n")


def _read_csv(path, dtype, what: str) -> Array:
    """numpy's reader on a comma-separated file; its errors name the file."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # numpy's "input contained no data"
            return np.loadtxt(
                path, delimiter=",", ndmin=2, dtype=dtype, comments=None, encoding="ascii"
            )
    except UserWarning:
        raise ValueError(f"empty {what} file") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_float_grid(path) -> Array:
    return as_grid(_read_csv(path, np.float64, "grid"), "grid")


def write_labels(labels: Array, path) -> None:
    """An integer grid as CSV, one row per line, each label in decimal.

    The file is assembled as one byte buffer by integer arithmetic on
    the cells' magnitudes: each cell's digit count comes from comparisons
    with powers of ten, and its digits are written back to front, one
    digit position for all cells at a time.
    """
    labels = np.asarray(labels)
    if labels.ndim != 2 or labels.size == 0 or labels.dtype.kind not in "iu":
        raise ValueError(
            f"labels must be a nonempty 2D integer array, got {labels.dtype} {labels.shape}"
        )
    flat = labels.ravel()
    neg = flat < 0
    # |x| in the smallest unsigned type of b bits that holds every |x|: a
    # negative x wraps to 2**b - |x|, and negating that modulo 2**b gives
    # |x|, even at the dtype's minimum
    top = max(int(flat.max()), -int(flat.min()))
    rest = flat.astype(np.min_scalar_type(top))
    np.negative(rest, out=rest, where=neg)
    width = neg + 2  # sign, first digit and the ',' or newline that ends each cell
    power = 10
    while power <= top:
        width += rest >= power
        power *= 10
    ends = np.cumsum(width)
    data = np.full(ends[-1], ord(","), dtype=np.uint8)
    data[ends[labels.shape[1] - 1 :: labels.shape[1]] - 1] = ord("\n")
    data[ends[neg] - width[neg]] = ord("-")
    at = np.subtract(ends, 2, out=ends)  # each cell's last digit
    for pos in range(len(str(top))):
        if pos:  # the cells with more than pos digits, one digit to the left
            more = rest > 0
            if not more.all():
                at, rest = at[more], rest[more]
            at -= 1
        quot = rest // 10  # numpy divides by a scalar in SIMD, but not its remainder
        data[at] = rest - 10 * quot + ord("0")
        rest = quot
    _atomic_write_bytes(path, data.tobytes())


def read_labels(path) -> Array:
    return _read_csv(path, np.int64, "label")


def label_image(labels: Array, k: int) -> Array:
    """Render phase i at intensity i/k for PGM output."""
    return np.asarray(labels, dtype=np.float64) / k


def write_trace(trace: IterationTrace, path) -> None:
    lines = [TRACE_HEADER]
    for row in trace:
        lines.append(
            f"{row.k},{row.energy!r},{row.increment!r},"
            f"{row.support_size},{row.min_nonzero_grad!r},{row.inner_iters}"
        )
    _atomic_write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Run configuration


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
        return OuterParams(
            rho=self.rho, tol_out=self.tol_out, maxit_out=self.maxit_out
        )

    def admm_params(self) -> AdmmParams:
        return AdmmParams(r=self.r, tol_in=self.tol_in, maxit_in=self.maxit_in)


# JSON key -> RunConfig field; CLI flags store under the field names
CONFIG_KEYS = {("K" if f.name == "k" else f.name): f.name for f in fields(RunConfig)}
_FIELD_TYPES = get_type_hints(RunConfig)


def _checked(cls, payload: dict, what: str, keys=None) -> dict:
    """payload, once it holds only keys (by default the fields of cls) and
    every field of cls without a default; cls checks the values."""
    unknown = sorted(set(payload) - set(keys or [f.name for f in fields(cls)]))
    if unknown:
        raise ValueError(f"unknown {what} keys: {unknown}")
    missing = sorted({f.name for f in fields(cls) if f.default is MISSING} - set(payload))
    if missing:
        raise ValueError(f"missing required {what} keys: {missing}")
    return payload


def config_from_dict(payload: dict) -> RunConfig:
    _checked(RunConfig, payload, "config", CONFIG_KEYS)
    config = RunConfig(**{CONFIG_KEYS[key]: value for key, value in payload.items()})
    # a JSON int in a float field reads as a float; the checks passed, so it fits one
    return replace(config, **{name: float(value) for name, value in asdict(config).items()
                              if type(value) is int and _FIELD_TYPES[name] is float})


def config_to_dict(config: RunConfig) -> dict:
    payload = asdict(config)
    payload["K"] = payload.pop("k")
    return payload


def write_report(payload: dict, path) -> None:
    _atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


def read_json_object(path, what: str) -> dict:
    """Load a JSON file whose top level must be an object."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError(f"{what} must be a JSON object")
    return payload


# ---------------------------------------------------------------------------
# Phantom specs


def _shape_from_dict(payload):
    if not isinstance(payload, dict):
        raise ValueError(f"shapes must hold JSON objects, got {payload!r}")
    kind = payload.get("type")
    cls = {"disk": Disk, "rect": Rect}.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown shape type {kind!r}")
    rest = {key: value for key, value in payload.items() if key != "type"}
    return cls(**_checked(cls, rest, kind))


def phantom_spec_from_dict(payload: dict) -> PhantomSpec:
    shapes = _checked(PhantomSpec, payload, "phantom spec").get("shapes", [])
    if not isinstance(shapes, list):
        raise ValueError(f"shapes must be a list, got {shapes!r}")
    return PhantomSpec(**{**payload, "shapes": [_shape_from_dict(s) for s in shapes]})
