"""Multi-scale semantic segmentation with per-patch scale gating.

A small, self-contained stack: a reverse-mode autodiff tensor core, a
hierarchical attention encoder, gate-weighted cross-scale fusion in both
encoder and decoder, a synthetic segmentation benchmark, and a training
CLI with ablation suites.
"""

from . import cpus  # noqa: F401  (first: its BLAS and allocator policy precede numpy)
from .tensor import ShapeError, Tensor
from .module import Linear, LayerNorm, Mlp, Module, Parameter
from .model import SegModel, build_model
from .segbench import SegSample, generate
from .config import RunConfig, resolve_config
from .train import ablate, evaluate_model, train_run

__all__ = [
    "ShapeError", "Tensor",
    "Linear", "LayerNorm", "Mlp", "Module", "Parameter",
    "SegModel", "build_model",
    "SegSample", "generate",
    "RunConfig", "resolve_config",
    "ablate", "evaluate_model", "train_run",
]

__version__ = "0.1.0"
