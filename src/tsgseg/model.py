"""Full segmentation model: backbone, cross-scale fusion, query decoder.

The run config pins every structural choice, including the fusion variant
pair used by the ablation baselines. Models are built for one image size:
the gate heads consume flattened attention maps whose width depends on the
patch grid.

A forward returns the patch-class scores, the loss input, with the gates
each fusion site used; a patch's predicted label is its highest score.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import ConfigError, RunConfig
from .decoder import Decoder, predict_scores
from .encoder import Backbone, TsgeFusion
from .module import Module
from .scale_gate import ScaleGates
from .tensor import ShapeError, Tensor


@dataclass
class ForwardResult:
    scores: Tensor  # (..., N, C) patch-class scores, the loss input
    encoder_gates: list[ScaleGates] = field(default_factory=list)
    decoder_gates: list[ScaleGates] = field(default_factory=list)


class SegModel(Module):
    """Backbone + fusion + decoder, wired per the configured variant.

    Single-scale variants keep only the backbone stages up to the selected
    one: the hierarchy is feed-forward, so the kept stage's features are
    unchanged and no parameter sits outside the gradient path. The modules
    build in float64, and the model casts every parameter it holds to
    ``cfg.precision`` once, as the last step of construction.
    """

    def __init__(self, cfg: RunConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.backbone = Backbone(cfg, rng)
        self.fusion = TsgeFusion(cfg, rng)
        self.decoder = Decoder(
            num_blocks=cfg.decoder_blocks, num_classes=cfg.num_classes,
            d_f=cfg.d_f, heads=cfg.decoder_heads,
            mlp_dim=cfg.mlp_dim(cfg.d_f),
            num_scales=cfg.decoder_scales, d_a=cfg.d_a, hidden=cfg.tsg_hidden,
            rng=rng, fusion=cfg.decoder_fusion, shared_head=cfg.shared_tsg,
        )
        self.target_grid = cfg.stage_grids()[0]
        self.cast(cfg.dtype)

    def __call__(self, image: Tensor, forced_gates=None) -> ForwardResult:
        """Segment an (H, W, 3) image, or a (B, H, W, 3) batch in one graph.

        Scores are (N, C) for one image and (B, N, C) for a batch.
        ``forced_gates`` pins all gate entries.
        """
        features, bundles = self.backbone(image, self.fusion.readers(forced_gates))
        refined, enc_gates = self.fusion(features, bundles, forced_gates=forced_gates)
        del features, bundles  # the decoder reads only the fused features
        y, dec_gates, f_dec = self.decoder(refined, self.target_grid,
                                           forced_gates=forced_gates)
        return ForwardResult(scores=predict_scores(f_dec, y), encoder_gates=enc_gates,
                             decoder_gates=dec_gates)


def check_precision(cfg: RunConfig, dtype, caller: str) -> None:
    """Raise ``ConfigError`` unless ``dtype`` names ``cfg.precision``."""
    if np.dtype(dtype) != np.dtype(cfg.dtype):
        raise ConfigError(f"{caller}: dtype {np.dtype(dtype)} disagrees with "
                          f"precision {cfg.precision!r} ({np.dtype(cfg.dtype)})")


def build_model(cfg: RunConfig, seed: int, dtype=None) -> SegModel:
    """The seeded model for ``cfg``, in ``cfg.precision``; a ``dtype``, if
    given, must name that precision."""
    if dtype is not None:
        check_precision(cfg, dtype, "build_model")
    return SegModel(cfg, np.random.default_rng(seed))


def copy_matching_parameters(src: Module, dst: Module) -> list[str]:
    """Write src values into the arrays of same-named dst parameters.

    Every dst parameter must exist in src with an equal shape; src may have
    extras (a gated model carries gate heads its baseline lacks). A value
    is cast to its dst array's dtype; nothing is written unless every name
    and shape checks out. Returns the copied names.
    """
    src_params = dict(src.named_parameters())
    dst_params = dst.named_parameters()
    for name, p in dst_params:
        if name not in src_params:
            raise KeyError(f"source model has no parameter {name!r}")
        if src_params[name].shape != p.shape:
            raise ShapeError(f"{name}: source {src_params[name].shape} vs target {p.shape}")
    for name, p in dst_params:
        np.copyto(p.data, src_params[name].data)
    return [name for name, _ in dst_params]
