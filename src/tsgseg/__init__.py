"""Multi-scale semantic segmentation with per-patch scale gating.

A small, self-contained stack: a reverse-mode autodiff tensor core, a
hierarchical attention encoder, gate-weighted cross-scale fusion in both
encoder and decoder, a synthetic segmentation benchmark, and a training
CLI with ablation suites.
"""

import os

# ``tensor`` runs self-attention's row blocks on a thread per CPU, so each
# BLAS call keeps to its calling thread unless the environment asks for more.
# BLAS reads these when numpy is first imported: a program that imports
# numpy before tsgseg keeps its own setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

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
