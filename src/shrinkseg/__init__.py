"""Two-stage segmentation of images with smooth intensity bias.

Stage one splits the observation into a piecewise-constant component
and a smooth bias component by iteratively shrinking the set of pixels
allowed to carry a nonzero gradient. Stage two clusters the corrected
component's values and thresholds midway between cluster means.
"""

from . import imgio  # noqa: F401  (the README and scripts reach it as shrinkseg.imgio)
from .admm import AdmmParams
from .decompose import (
    DecompositionResult,
    IterationTrace,
    OuterParams,
    TraceRow,
    decompose,
    decompose_image,
)
from .energy import ModelParams, decomposition_energy
from .metrics import cv, jaccard
from .synth import Disk, Phantom, PhantomSpec, Rect, generate
from .threshold import SegmentationResult, kmeans_1d, segment

__all__ = [
    "AdmmParams",
    "DecompositionResult",
    "Disk",
    "IterationTrace",
    "ModelParams",
    "OuterParams",
    "Phantom",
    "PhantomSpec",
    "Rect",
    "RunConfig",
    "SegmentationResult",
    "TraceRow",
    "cv",
    "decompose",
    "decompose_image",
    "decomposition_energy",
    "generate",
    "jaccard",
    "kmeans_1d",
    "segment",
]


def __getattr__(name):
    # the CLI module, which holds RunConfig, loads on first use: imported with
    # the package, `python -m shrinkseg.cli` would find it already imported
    if name != "RunConfig":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .cli import RunConfig

    return RunConfig
