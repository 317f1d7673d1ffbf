"""Two-stage segmentation of images with smooth intensity bias.

Stage one splits the observation into a piecewise-constant component
and a smooth bias component by iteratively shrinking the set of pixels
allowed to carry a nonzero gradient. Stage two clusters the corrected
component's values and thresholds midway between cluster means.
"""

from .admm import AdmmParams, InnerResult, admm_solve, solve_uv
from .decompose import (
    DecompositionResult,
    IterationTrace,
    OuterParams,
    TraceRow,
    decompose,
    decompose_image,
)
from .energy import ModelParams, decomposition_energy
from .grid import OperatorSymbols, compute_symbols, grad, grad_adjoint, grad_norms
from .imgio import RunConfig
from .metrics import cv, jaccard
from .reduced import reduced_solve
from .support import SupportSet, detect_support, initial_support, project_to_support
from .synth import Disk, Phantom, PhantomSpec, Rect, gaussian_field, generate
from .threshold import SegmentationResult, kmeans_1d, segment

__all__ = [
    "AdmmParams",
    "DecompositionResult",
    "Disk",
    "InnerResult",
    "IterationTrace",
    "ModelParams",
    "OperatorSymbols",
    "OuterParams",
    "Phantom",
    "PhantomSpec",
    "Rect",
    "RunConfig",
    "SegmentationResult",
    "SupportSet",
    "TraceRow",
    "admm_solve",
    "compute_symbols",
    "cv",
    "decompose",
    "decompose_image",
    "decomposition_energy",
    "detect_support",
    "gaussian_field",
    "generate",
    "grad",
    "grad_adjoint",
    "grad_norms",
    "initial_support",
    "jaccard",
    "kmeans_1d",
    "project_to_support",
    "reduced_solve",
    "segment",
    "solve_uv",
]
