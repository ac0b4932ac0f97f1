"""Full segmentation model: backbone, cross-scale fusion, query decoder.

The run config pins every structural choice, including the fusion variant
pair used by the ablation baselines. Models are built for one image size:
the gate heads consume flattened attention maps whose width depends on the
patch grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .decoder import Decoder, SegLogits, predict_scores
from .encoder import Backbone, TsgeFusion
from .module import Module
from .scale_gate import ScaleGates
from .tensor import ShapeError, Tensor, softmax


@dataclass
class ForwardResult:
    logits: SegLogits
    scores: Tensor  # pre-softmax patch-class scores, the loss input
    encoder_gates: list[ScaleGates] = field(default_factory=list)
    decoder_gates: list[ScaleGates] = field(default_factory=list)


class SegModel(Module):
    """Backbone + fusion + decoder, wired per the configured variant.

    Single-scale variants keep only the backbone stages up to the selected
    one: the hierarchy is feed-forward, so the kept stage's features are
    unchanged and no parameter sits outside the gradient path.
    """

    def __init__(self, cfg: RunConfig, rng: np.random.Generator, dtype=np.float64):
        self.cfg = cfg
        self.backbone = Backbone(cfg, cfg.kept_stages, rng, dtype)
        self.fusion = TsgeFusion(cfg, cfg.kept_stages, rng, dtype)
        self.decoder = Decoder(
            num_blocks=cfg.decoder_blocks, num_classes=cfg.num_classes,
            d_f=cfg.d_f, heads=cfg.decoder_heads,
            mlp_dim=max(1, int(round(cfg.d_f * cfg.mlp_ratio))),
            num_scales=cfg.decoder_scales, d_a=cfg.d_a, hidden=cfg.tsg_hidden,
            rng=rng, fusion=cfg.decoder_fusion, shared_head=cfg.shared_tsg,
            dtype=dtype, integration_bias=cfg.integration_bias,
        )
        self.target_grid = cfg.stage_grids()[0]

    def __call__(self, image: Tensor, forced_gates=None) -> ForwardResult:
        """Segment an (H, W, 3) image, or a (B, H, W, 3) batch in one graph.

        Scores are (N, C) for one image and (B, N, C) for a batch.
        ``forced_gates`` pins all gate entries.
        """
        features, bundles = self.backbone(image)
        refined, enc_gates = self.fusion(features, bundles, forced_gates=forced_gates)
        y, dec_gates, f_dec = self.decoder(refined, self.target_grid,
                                           forced_gates=forced_gates)
        scores = predict_scores(f_dec, y)
        logits = SegLogits(p=softmax(scores, axis=-1), spatial=self.target_grid)
        return ForwardResult(logits=logits, scores=scores, encoder_gates=enc_gates,
                             decoder_gates=dec_gates)


def build_model(cfg: RunConfig, seed: int, dtype=np.float64) -> SegModel:
    return SegModel(cfg, np.random.default_rng(seed), dtype)


def copy_matching_parameters(src: Module, dst: Module) -> list[str]:
    """Copy src parameters into same-named dst parameters (values only).

    Every dst parameter must exist in src with an equal shape; src may have
    extras (a gated model carries gate heads its baseline lacks). Returns
    the copied names.
    """
    src_params = dict(src.named_parameters())
    copied = []
    for name, p in dst.named_parameters():
        if name not in src_params:
            raise KeyError(f"source model has no parameter {name!r}")
        s = src_params[name]
        if s.shape != p.shape:
            raise ShapeError(f"{name}: source {s.shape} vs target {p.shape}")
        p.data = s.data.copy()
        copied.append(name)
    return copied
