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
    "SegmentationResult",
    "TraceRow",
    "cv",
    "decompose_image",
    "decomposition_energy",
    "generate",
    "jaccard",
    "kmeans_1d",
    "segment",
]

