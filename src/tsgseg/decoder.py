"""Class-query transformer decoder with per-block gated multi-scale memory.

Each decoder block attends from one learnable query per class to a fused
patch-feature memory. Block 1 fuses the (upsampled) multi-scale maps by a
plain sum; every later block re-fuses them with per-patch scale gates
computed from the previous block's class-renormalized cross-attention maps.
The final query embeddings score patches against classes; those scores
are the model's output, and a patch's label is its highest-scoring class.
"""

from __future__ import annotations

import numpy as np

from .attention import AttentionBundle, DecoderBlock, MhaConfig
from .module import Module, Parameter
from .scale_gate import ScaleGates, TsgHead, constant_gates, gated_sum
from .tensor import ShapeError, Tensor, matmul, scale, transpose, upsample_bilinear


def tsgd_fuse_first(features_up: list[Tensor]) -> Tensor:
    """Ungated memory for the first decoder block: plain sum across scales."""
    if not features_up:
        raise ShapeError("tsgd_fuse_first: empty feature list")
    shape = features_up[0].shape
    for f in features_up[1:]:
        if f.shape != shape:
            raise ShapeError(f"tsgd_fuse_first: mixed shapes {shape} vs {f.shape}")
    out = features_up[0]
    for f in features_up[1:]:
        out = out + f
    return out


def tsgd_fuse(
    features_up: list[Tensor], prev_cross: AttentionBundle, head: TsgHead,
) -> tuple[Tensor, ScaleGates]:
    """Gate-weighted memory: per-patch convex combination over scales.

    ``prev_cross`` must hold class-renormalized maps; the head turns them
    into an N x S gate matrix (rows sum to 1) that weights the features.
    """
    gates = head.gate(head.integrate_cross(prev_cross))
    return gated_sum(features_up, gates.gates), gates


class Decoder(Module):
    """Stack of decoder blocks over zero-initialized class queries.

    ``fusion`` selects the memory rule for blocks after the first:
    ``"tsg"`` re-fuses with gates from the previous block's cross maps,
    ``"sum"`` repeats the plain sum. With a single candidate scale the sum
    rule is the natural choice; gate heads are only built when used.
    ``RunConfig`` checks the block count and the fusion name.
    """

    def __init__(self, num_blocks: int, num_classes: int, d_f: int, heads: int,
                 mlp_dim: int, num_scales: int, d_a: int, hidden: int,
                 rng: np.random.Generator, fusion: str = "tsg",
                 shared_head: bool = False):
        self.fusion = fusion
        self.queries = Parameter(np.zeros((num_classes, d_f)))
        cfg = MhaConfig(heads=heads, model_dim=d_f)
        self.blocks = [DecoderBlock(cfg, mlp_dim, rng) for _ in range(num_blocks)]
        self.gate_heads: list[TsgHead] = []
        if fusion == "tsg" and num_blocks >= 2:
            def head() -> TsgHead:  # reads the transposed cross maps, concatenated
                return TsgHead([heads * num_classes], d_a, hidden, num_scales, rng)

            shared = head() if shared_head else None
            self.gate_heads = [shared or head() for _ in range(num_blocks - 1)]

    def __call__(self, features, target_grid: tuple[int, int], forced_gates=None):
        """Run all blocks; return final queries, per-block gates, last memory.

        ``features`` are per-scale FeatureMaps (finest first); each is
        bilinearly upsampled to ``target_grid`` before fusion. A scalar
        ``forced_gates`` pins every gate entry to that value, bypassing the
        gate heads (baseline-equivalence runs).
        """
        n = target_grid[0] * target_grid[1]
        ups = [upsample_bilinear(fm.data, fm.grid, target_grid) for fm in features]
        queries = self.queries
        gates_out: list[ScaleGates] = []
        prev_gated: AttentionBundle | None = None
        memory = None
        for i, block in enumerate(self.blocks):
            if i == 0 or self.fusion == "sum":
                memory = tsgd_fuse_first(ups)
            elif forced_gates is not None:
                gates = constant_gates(forced_gates, n, len(ups), ups[0].dtype)
                memory = gated_sum(ups, gates.gates)
                gates_out.append(gates)
            else:
                assert prev_gated is not None
                memory, gates = tsgd_fuse(ups, prev_gated, self.gate_heads[i - 1])
                gates_out.append(gates)
            # only the next block's gate head reads the class-normalized maps
            gated_next = (i + 1 < len(self.blocks) and self.fusion != "sum"
                          and forced_gates is None)
            queries, _, _, prev_gated = block(queries, memory, gate_softmax=gated_next)
        return queries, gates_out, memory


def predict_scores(f_dec_last: Tensor, y: Tensor) -> Tensor:
    """Patch-class scores F Y^T / sqrt(d): the loss input and the model output."""
    return scale(matmul(f_dec_last, transpose(y)), 1.0 / np.sqrt(y.shape[-1]))


def labels_to_mask(labels: np.ndarray, grid: tuple[int, int],
                   image_size: tuple[int, int]) -> np.ndarray:
    """Copy (N,) patch labels on a row-major ``grid`` out to the pixels of
    each patch: an (H, W) label map.

    ``image_size`` must be a whole multiple of the patch grid on both axes.
    """
    h, w = grid
    ih, iw = image_size
    if labels.shape != (h * w,):
        raise ShapeError(f"patch labels {labels.shape} do not fit grid {grid}")
    if ih % h or iw % w:
        raise ShapeError(f"image {ih}x{iw} is not a multiple of patch grid {h}x{w}")
    return np.repeat(np.repeat(labels.reshape(h, w), ih // h, axis=0), iw // w, axis=1)
