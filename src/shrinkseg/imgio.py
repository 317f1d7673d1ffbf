"""Bit-exact interchange: PGM images, CSV grids and traces, JSON files
and phantom specs.

Float grids serialize through repr(), whose shortest round-trip form
reads back bit-identically, so u and v survive disk without
quantization. Every writer goes through a temp-then-rename step so a
crashed run never leaves a truncated artifact behind.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np

# the log-domain transform lives with decompose_image; imgio keeps its names
from .decompose import IterationTrace, from_log_domain, to_log_domain
from .grid import Array, as_grid, check_keys
from .synth import Disk, PhantomSpec, Rect

TRACE_HEADER = "k,F,increment,support_size,min_nonzero_grad,inner_iters"
# the TraceRow field of each TRACE_HEADER column
TRACE_FIELDS = ("k", "energy", "increment", "support_size", "min_nonzero_grad", "inner_iters")


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


# ---------------------------------------------------------------------------
# PGM


# the header's four tokens, each after whitespace and '#' comments (which
# run to their line's end); the tokens the data runs out before are empty
_PGM_HEADER = re.compile(rb"(?:\s|#[^\r\n]*)*(\S*)" * 4)


def _read_pgm_header(data: bytes):
    """Magic, width, height, maxval; '#' comments allowed between tokens."""
    header = _PGM_HEADER.match(data)
    magic, *rest = header.groups()
    if magic and magic not in (b"P2", b"P5"):
        raise ValueError(f"unsupported magic {magic!r}, want P2 or P5")
    numbers = [int(token) for token in rest if token]  # a bad number before a missing one
    if len(numbers) < 3:
        raise ValueError("truncated PGM header")
    width, height, maxval = numbers
    if width < 1 or height < 1:
        raise ValueError(f"PGM width and height must be at least 1, got {width}x{height}")
    if not 1 <= maxval <= 65535:
        raise ValueError(f"PGM maxval must lie in 1..65535, got {maxval}")
    # single whitespace byte separates header from raster
    return magic, width, height, maxval, header.end() + 1


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
    return as_grid((samples / maxval).reshape(height, width), str(path))


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
# CSV grids, labels, traces; JSON files


def write_float_grid(grid: Array, path) -> None:
    grid = as_grid(grid, "grid")
    lines = [",".join(repr(x) for x in row) for row in grid.tolist()]
    _atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("ascii"))


# numpy's row R, the last "at row R" of its message (a quoted cell may hold the
# words too), counts nonblank lines from 0 in a conversion error and from 1 in a
# column-count error, whose advice names an option (usecols) that no command has
_AT_ROW = re.compile(r"(.*)at row (\d+)(?:; use `usecols`.*)?", re.S)


def _read_csv(path, dtype, what: str) -> Array:
    """numpy's reader on a comma-separated file; its errors name the file
    and give the 1-based line of the file where numpy gives a row."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # numpy's "input contained no data"
            return np.loadtxt(
                path, delimiter=",", ndmin=2, dtype=dtype, comments=None, encoding="ascii"
            )
    except UserWarning:
        raise ValueError(f"empty {what} file") from None
    except ValueError as exc:
        message = str(exc)
        if match := _AT_ROW.match(message):
            row = int(match[2]) - message.startswith("the number of columns")
            # read only as far as that row: metrics tries each float CSV as labels first
            with open(path, encoding="ascii", errors="replace") as handle:
                lines = (number for number, text in enumerate(handle, 1) if text != "\n")
                line = next(itertools.islice(lines, row, None))
            message = f"{match[1]}at line {line}{message[match.end():]}"
        raise ValueError(f"{path}: {message}") from None


def read_float_grid(path) -> Array:
    return as_grid(_read_csv(path, np.float64, "grid"), str(path))


def read_grid(path) -> Array:
    """A .pgm or .pnm file (any case) through read_image, any other through read_float_grid."""
    if str(path).lower().endswith((".pgm", ".pnm")):
        return read_image(path)
    return read_float_grid(path)


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


def write_trace(trace: IterationTrace, path) -> None:
    rows = (",".join(str(getattr(row, name)) for name in TRACE_FIELDS) for row in trace)
    _atomic_write_bytes(path, ("\n".join([TRACE_HEADER, *rows]) + "\n").encode("ascii"))


def write_report(payload: dict, path) -> None:
    _atomic_write_bytes(path, (json.dumps(payload, indent=2) + "\n").encode("ascii"))


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
    return cls(**check_keys(cls, rest, kind))


def phantom_spec_from_dict(payload: dict) -> PhantomSpec:
    shapes = check_keys(PhantomSpec, payload, "phantom spec").get("shapes", [])
    if not isinstance(shapes, list):
        raise ValueError(f"shapes must be a list, got {shapes!r}")
    return PhantomSpec(**{**payload, "shapes": [_shape_from_dict(s) for s in shapes]})
