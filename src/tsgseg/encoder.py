"""Hierarchical patch encoder and gated top-down feature fusion.

The backbone embeds non-overlapping image patches, runs a stack of global
self-attention blocks per stage, and halves the grid between stages by
merging 2x2 token neighborhoods. Each stage's final self-attention maps are
kept: at each fusion step a gate head projects the maps of the current
stage and of every coarser one, each at its own grid, upsamples the
projections to the current grid and decides from their sum, patch by
patch, how much of the coarser refined map versus the current stage's own
features to keep.

Fusion variants share the same projection layers so baselines stay weight-
compatible with the gated model:

- ``tsg``:   gate heads weight each pairwise top-down merge;
- ``fpn``:   unweighted top-down sums (every gate pinned to 1), no heads;
- ``none``:  per-stage linear projections only, no cross-scale mixing;
- ``single``: one stage only, linearly projected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import AttentionBundle, EncoderBlock, MhaConfig
from .config import RunConfig
from .module import Linear, Module, Parameter
from .scale_gate import ScaleGates, TsgHead, constant_gates, gated_sum
from .tensor import ShapeError, Tensor, permute, reshape, upsample_bilinear


@dataclass
class FeatureMap:
    """Per-stage patch features with their grid shape."""

    data: Tensor  # (..., h * w, d), row-major over the grid
    h: int
    w: int
    stage: int

    def __post_init__(self):
        if self.data.ndim < 2 or self.data.shape[-2] != self.h * self.w:
            raise ShapeError(
                f"feature map {self.data.shape} does not have {self.h}x{self.w} rows"
            )

    @property
    def grid(self) -> tuple[int, int]:
        return self.h, self.w


def _cells_to_rows(x: Tensor, lead: tuple[int, ...], h: int, w: int, k: int) -> Tensor:
    """Group each k x k cell of a row-major (h, w) grid of channel vectors
    into one row: (..., h/k * w/k, k * k * channels).

    ``x`` holds the grid as (*lead, h, w, channels) or (*lead, h * w,
    channels). Cells are ordered row-major over the coarse grid; a row
    lists its k * k positions row-major, channels innermost.
    """
    c = x.shape[-1]
    grid = reshape(x, lead + (h // k, k, w // k, k, c))
    return reshape(permute(grid, (0, 2, 1, 3, 4)), lead + ((h // k) * (w // k), k * k * c))


class PatchEmbed(Module):
    """Non-overlapping patch flattening plus a linear projection.

    The learned positional table, when enabled, is sized for a fixed input
    grid; images of other sizes are rejected.
    """

    def __init__(self, patch_size: int, dim: int, grid: tuple[int, int],
                 rng: np.random.Generator, positional: bool):
        self.patch_size = patch_size
        self.grid = grid
        self.proj = Linear(patch_size * patch_size * 3, dim, rng)
        self.pos: Parameter | None = None
        if positional:
            self.pos = Parameter(rng.normal(0.0, 0.02, size=(grid[0] * grid[1], dim)))

    def __call__(self, image: Tensor) -> FeatureMap:
        p = self.patch_size
        if image.ndim < 3 or image.shape[-1] != 3:
            raise ShapeError(
                f"patch_embed: expected an (..., H, W, 3) image, got {image.shape}"
            )
        h, w = image.shape[-3:-1]
        if (h // p, w // p) != self.grid or h % p or w % p:
            raise ShapeError(
                f"patch_embed: image {h}x{w} does not match configured grid "
                f"{self.grid} at patch size {p}"
            )
        tokens = self.proj(_cells_to_rows(image, image.shape[:-3], h, w, p))
        if self.pos is not None:
            tokens = tokens + self.pos
        return FeatureMap(data=tokens, h=h // p, w=w // p, stage=1)


class PatchMerge(Module):
    """Concatenate each 2x2 neighborhood and project; halves both grid axes."""

    def __init__(self, dim_in: int, dim_out: int, rng: np.random.Generator):
        self.proj = Linear(4 * dim_in, dim_out, rng)

    def __call__(self, fm: FeatureMap) -> FeatureMap:
        if fm.h % 2 or fm.w % 2:
            raise ShapeError(f"patch_merge: odd grid {fm.h}x{fm.w} cannot be halved")
        merged = _cells_to_rows(fm.data, fm.data.shape[:-2], fm.h, fm.w, 2)
        return FeatureMap(
            data=self.proj(merged), h=fm.h // 2, w=fm.w // 2, stage=fm.stage + 1
        )


class Backbone(Module):
    """Stage pyramid producing per-stage features and final attention maps.

    Built from the run config's kept stages; the config guarantees that its
    image size halves cleanly through all of them.
    """

    def __init__(self, cfg: RunConfig, rng: np.random.Generator):
        dims = cfg.stage_dims[:cfg.kept_stages]
        grid = cfg.stage_grids()[0]
        self.embed = PatchEmbed(cfg.patch_size, dims[0], grid, rng, cfg.positional)
        self.stages: list[list[EncoderBlock]] = []
        self.merges: list[PatchMerge] = []
        for s, (blocks, dim, heads) in enumerate(
                zip(cfg.stage_blocks, dims, cfg.stage_heads)):
            mha = MhaConfig(heads=heads, model_dim=dim)
            self.stages.append([EncoderBlock(mha, cfg.mlp_dim(dim), rng)
                                for _ in range(blocks)])
            if s + 1 < len(dims):
                self.merges.append(PatchMerge(dim, dims[s + 1], rng))

    def __call__(self, image: Tensor) -> tuple[list[FeatureMap], list[AttentionBundle]]:
        fm = self.embed(image)
        features: list[FeatureMap] = []
        bundles: list[AttentionBundle] = []
        for s, blocks in enumerate(self.stages):
            tokens = fm.data
            bundle = None
            for block in blocks:
                tokens, bundle = block(tokens)
            assert bundle is not None
            bundle.grid = (fm.h, fm.w)
            fm = FeatureMap(data=tokens, h=fm.h, w=fm.w, stage=s + 1)
            features.append(fm)
            bundles.append(bundle)
            if s + 1 < len(self.stages):
                fm = self.merges[s](fm)
        return features, bundles


def upsample_attention(bundle: AttentionBundle, target: tuple[int, int]) -> AttentionBundle:
    """Upsample a self-attention bundle's row axis to a finer grid.

    Rows are laid out on the bundle's grid and bilinearly interpolated to
    ``target``; the key axis is untouched. Interpolation is affine, so rows
    of sum-1 maps still sum to 1. Equal grids return the bundle unchanged.

    Nothing in the model calls it: ``TsgHead.integrate_self`` projects
    each bundle at its own grid and upsamples the projection. It is kept
    for ``perfbench/tracing.py``, which traces it by name, and for its
    tests, until ROADMAP item 6 drops the name.
    """
    if bundle.grid is None:
        raise ShapeError("upsample_attention: bundle carries no grid metadata")
    if bundle.grid == tuple(target):
        return bundle
    return AttentionBundle(
        upsample_bilinear(bundle.stacked, bundle.grid, target),
        softmax_axis=bundle.softmax_axis, kind=bundle.kind, grid=tuple(target),
    )


class FusionStep(Module):
    """One top-down merge: the stage's input projection plus its gate head."""

    def __init__(self, transform: Linear, head: TsgHead | None):
        self.transform = transform
        self.head = head


class TsgeFusion(Module):
    """Refine backbone features into a common width, optionally gated.

    Built from the run config's fusion settings for its kept stages. A gate
    head reads each stage's concatenated head maps, heads x key count wide;
    the key count is a function of the training grid, so models are tied to
    the image size they were built for.
    """

    def __init__(self, cfg: RunConfig, rng: np.random.Generator):
        self.kind = cfg.encoder_fusion
        dims = cfg.stage_dims[:cfg.kept_stages]

        if self.kind == "single":
            # Only the projection actually used is created, so every
            # parameter of a single-scale model receives gradients.
            self.proj = Linear(dims[-1], cfg.d_f, rng)
            return

        widths = [heads * gh * gw for heads, (gh, gw)
                  in zip(cfg.stage_heads, cfg.stage_grids())]

        def head(in_widths):
            return TsgHead(in_widths, cfg.d_a, cfg.tsg_hidden, num_scales=2, rng=rng,
                           integration_bias=cfg.integration_bias)

        self.top_proj = Linear(dims[-1], cfg.d_f, rng)
        gated = self.kind == "tsg"
        self.shared_head = head(widths) if gated and cfg.shared_tsg else None
        steps: list[FusionStep] = []
        for s in range(len(dims) - 1):  # step s fuses stage s+1 with the refined map
            transform = Linear(dims[s], cfg.d_f, rng)
            step_head = (self.shared_head or head(widths[s:])) if gated else None
            steps.append(FusionStep(transform, step_head))
        self.steps = steps

    def __call__(
        self, features: list[FeatureMap], bundles: list[AttentionBundle],
        forced_gates: float | None = None,
    ) -> tuple[list[FeatureMap], list[ScaleGates]]:
        """Produce refined maps for every stage (finest first).

        One top-down pass projects each stage to ``d_f``; ``fpn`` adds the
        upsampled coarser refined map, ``tsg`` gates between the two, and
        ``none`` keeps the projection alone. A scalar ``forced_gates`` pins
        every gate entry to that value, bypassing the gate heads
        (baseline-equivalence runs).
        """
        if self.kind == "single":
            fm = features[-1]
            return [FeatureMap(self.proj(fm.data), fm.h, fm.w, fm.stage)], []

        top = features[-1]
        refined = [FeatureMap(self.top_proj(top.data), top.h, top.w, top.stage)]
        gates_out: list[ScaleGates] = []
        for s in range(len(features) - 2, -1, -1):
            fm, coarse = features[s], refined[-1]
            fused = self.steps[s].transform(fm.data)
            if self.kind != "none":
                up = upsample_bilinear(coarse.data, coarse.grid, fm.grid)
                if self.kind == "fpn":
                    fused = up + fused
                else:
                    gates = self._step_gates(s, fm, bundles, forced_gates)
                    fused = gated_sum([up, fused], gates.gates)
                    gates_out.append(gates)
            refined.append(FeatureMap(fused, fm.h, fm.w, fm.stage))
        return refined[::-1], gates_out

    def _step_gates(self, s: int, fm: FeatureMap, bundles, forced) -> ScaleGates:
        if forced is not None:
            return constant_gates(forced, fm.h * fm.w, 2, fm.data.dtype)
        head = self.steps[s].head
        assert head is not None
        return head.gate(head.integrate_self(bundles[s:]))
