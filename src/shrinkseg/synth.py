"""Ground-truthed phantoms: shapes, smooth bias fields, seeded noise.

Phantoms compose a piecewise-constant image (phase 1 background plus
rasterized primitives, later shapes winning overlaps), a smooth bias
field normalized to a requested amplitude, and Gaussian noise from an
explicitly specified generator so results are reproducible bit for
bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Array, check_count, check_fields, is_number

# strictly positive floor shared by multiplicative composition and the
# log-domain transform
EPS_POS = 1e-4

# each bias kind's smooth pattern of the coordinates y, x in [-1, 1]
_BIAS_PATTERNS = {
    "none": None,
    "linear_ramp": lambda y, x: (x + y) / 2.0,
    "gaussian_bump": lambda y, x: np.exp(-(x**2 + y**2) / (2.0 * 0.5**2)),
    "low_freq_sinusoid": lambda y, x: np.sin(math.pi * x) * np.sin(math.pi * y / 2.0),
}
BIAS_KINDS = tuple(_BIAS_PATTERNS)
COMPOSITIONS = ("additive", "multiplicative")


@dataclass(frozen=True)
class Disk:
    """Filled disk; center and radius in pixel units, 1-based phase."""

    row: float
    col: float
    radius: float
    phase: int

    def __post_init__(self):
        check_fields(self, ("row", "col"))
        check_fields(self, ("radius",), "finite and nonnegative")
        check_count(self.phase, "phase", 1)

    def rasterize(self, rows: Array, cols: Array) -> Array:
        return (rows - self.row) ** 2 + (cols - self.col) ** 2 <= self.radius**2


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle with inclusive bounds, 1-based phase."""

    row0: float
    col0: float
    row1: float
    col1: float
    phase: int

    def __post_init__(self):
        check_fields(self, ("row0", "col0", "row1", "col1"))
        check_count(self.phase, "phase", 1)

    def rasterize(self, rows: Array, cols: Array) -> Array:
        return (
            (rows >= self.row0)
            & (rows <= self.row1)
            & (cols >= self.col0)
            & (cols <= self.col1)
        )


@dataclass(frozen=True)
class PhantomSpec:
    n: int
    phase_values: tuple[float, ...]
    shapes: tuple = ()
    bias_amplitude: float = 0.0
    bias_kind: str = "none"
    noise_sigma: float = 0.0
    composition: str = "multiplicative"
    seed: int = 0

    def __post_init__(self):
        check_count(self.n, "n", 2)
        check_count(self.seed, "seed", 0)
        vals = self.phase_values
        listed = isinstance(vals, (list, tuple)) or isinstance(vals, np.ndarray) and vals.ndim == 1
        if not (listed and all(map(is_number, vals))):
            raise ValueError(f"phase_values must be a list of numbers, got {vals!r}")
        if len(vals) == 0:
            raise ValueError("need at least one phase value")
        # as given: an int too large for a float is not finite, and float() overflows
        if any(not (0 < v <= 1) for v in vals):
            raise ValueError(f"phase values must lie in (0, 1], got {vals!r}")
        vals = tuple(float(v) for v in vals)
        if any(a >= b for a, b in zip(vals, vals[1:])):
            raise ValueError(f"phase values must be strictly ascending, got {vals}")
        object.__setattr__(self, "phase_values", vals)
        listed = isinstance(self.shapes, (list, tuple))
        if not (listed and all(isinstance(shape, (Disk, Rect)) for shape in self.shapes)):
            raise ValueError(f"shapes must be a list of Disk and Rect, got {self.shapes!r}")
        object.__setattr__(self, "shapes", tuple(self.shapes))
        top = max((shape.phase for shape in self.shapes), default=1)
        if top > len(vals):
            raise ValueError(f"shape phase {top} outside 1..{len(vals)}")
        if self.bias_kind not in BIAS_KINDS:
            raise ValueError(f"unknown bias kind {self.bias_kind!r}")
        if self.composition not in COMPOSITIONS:
            raise ValueError(f"unknown composition {self.composition!r}")
        check_fields(self, ("bias_amplitude", "noise_sigma"), "finite and nonnegative")


@dataclass(frozen=True)
class Phantom:
    """Observation f plus the ground truth it was composed from."""

    f: Array
    truth_labels: Array
    clean_u: Array
    bias_v: Array


def gaussian_field(n: int, sigma: float, seed: int) -> Array:
    """n x n i.i.d. Gaussian(0, sigma^2) draws, reproducible by seed.

    Uses PCG64 uniforms through the Box-Muller transform; 1 - U keeps
    the log argument in (0, 1].
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    u1 = 1.0 - rng.random((n, n))
    u2 = rng.random((n, n))
    return sigma * np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)


def _bias_pattern(n: int, kind: str) -> Array:
    """Smooth pattern with grid maximum absolute value exactly 1."""
    pattern = _BIAS_PATTERNS[kind]
    if pattern is None:
        return np.zeros((n, n))
    t = np.linspace(-1.0, 1.0, n)
    y, x = np.meshgrid(t, t, indexing="ij")
    raw = pattern(y, x)
    return raw / np.abs(raw).max()


def rasterize_labels(spec: PhantomSpec) -> Array:
    """Phase-1 background overwritten by each shape in order."""
    rows, cols = np.meshgrid(
        np.arange(spec.n, dtype=np.float64),
        np.arange(spec.n, dtype=np.float64),
        indexing="ij",
    )
    labels = np.ones((spec.n, spec.n), dtype=np.int64)
    for shape in spec.shapes:
        labels[shape.rasterize(rows, cols)] = shape.phase
    return labels


def generate(spec: PhantomSpec) -> Phantom:
    """Compose observation, truth labels, clean image, and bias field.

    Multiplicative mode keeps the observation above EPS_POS so a log
    transform stays finite; additive mode composes by plain sums and
    is left unclamped.
    """
    labels = rasterize_labels(spec)
    clean_u = np.asarray(spec.phase_values, dtype=np.float64)[labels - 1]

    pattern = spec.bias_amplitude * _bias_pattern(spec.n, spec.bias_kind)
    noise = gaussian_field(spec.n, spec.noise_sigma, spec.seed)

    if spec.composition == "multiplicative":
        bias_v = 1.0 + pattern
        f = np.maximum(clean_u * bias_v + noise, EPS_POS)
    else:
        bias_v = pattern
        f = clean_u + bias_v + noise

    return Phantom(f=f, truth_labels=labels, clean_u=clean_u, bias_v=bias_v)
