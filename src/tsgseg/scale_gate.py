"""Attention-driven scale gating.

A gate head turns attention evidence into a per-patch probability
distribution over candidate scales. Evidence arrives in one of two forms:

- self-attention maps from several backbone stages, concatenated per head
  and projected to d_A per source at that source's own grid; each
  projection is bilinearly upsampled to the first source's grid, and the
  projections are summed into one N x d_A map. Both steps are linear on
  the row axis and every bilinear row sums to 1, so this equals upsampling
  the maps first and projecting after, bias included, on d_A columns
  instead of heads x keys;
- class-normalized cross-attention maps, transposed to patch-major layout,
  concatenated over heads and projected with one linear.

A self-attention layer computes the projection of every integrator declared
to read its map (``tensor.self_attention``) and passes it in its bundle. A
bundle built from explicit maps, and a cross bundle, is projected here by
``head_linear``: one product per head against that head's K rows of the
integrator weight, summed over heads. Either is the integrator applied to
the (..., R, heads * K) concatenation, which is never built; leading axes
are batch axes.

The integrated map goes through layernorm, a two-layer MLP and a softmax
over the scale axis. The final MLP layer is zero-initialized so a fresh
head emits uniform gates, which makes an untrained model equivalent to
plain mean fusion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import CROSS_GATED_KIND, AttentionBundle
from .module import LayerNorm, Linear, Mlp, Module
from .tensor import (ShapeError, Tensor, head_linear, mul, narrow, softmax, transpose,
                     upsample_bilinear)

__all__ = ["ScaleGates", "TsgHead", "constant_gates", "gated_sum"]


@dataclass
class ScaleGates:
    """Per-patch distribution over scales: an N x S row-stochastic matrix."""

    gates: Tensor


def constant_gates(value: float, n: int, num_scales: int, dtype) -> ScaleGates:
    """Every one of the N x S gate entries pinned to ``value``.

    Forced gates bypass the gate heads: all-ones gates turn a gated fusion
    into the plain unweighted sum of its inputs.
    """
    return ScaleGates(gates=Tensor(np.full((n, num_scales), float(value), dtype=dtype)))


class TsgHead(Module):
    """Gate head: per-source integration linears, then norm -> MLP -> softmax.

    ``in_widths`` lists the feature width of each evidence source (one per
    backbone stage for self-attention use, a single entry for cross-attention
    use). The bundles a call passes are its trailing sources, so a head built
    for all stages serves every fusion step: a step that consumes the last k
    stages uses the last k integrators.
    """

    def __init__(self, in_widths: list[int], d_a: int, hidden: int,
                 num_scales: int, rng: np.random.Generator):
        self.integrators = [Linear(w, d_a, rng) for w in in_widths]
        self.norm = LayerNorm(d_a)
        self.mlp = Mlp(d_a, hidden, num_scales, rng, zero_init_out=True)

    def sources(self, count: int) -> list[Linear]:
        """The integrators of a call that passes ``count`` bundles: the last
        ``count``."""
        if count < 1:
            raise ShapeError("gate head: the bundle list is empty")
        if count > len(self.integrators):
            raise ShapeError(
                f"gate head has {len(self.integrators)} sources, got {count} bundles"
            )
        return self.integrators[len(self.integrators) - count:]

    def integrate_self(self, bundles: list[AttentionBundle]) -> Tensor:
        """Fuse self-attention bundles into one N x d_A map on the first
        bundle's grid.

        Each bundle is projected by its own integrator at its own grid, and
        the projection is upsampled to the first bundle's grid. Bundles
        without a grid must already share the first bundle's row count. A
        bundle from a self-attention layer carries its integrator's
        projection (the layer's ``readers``); one built from explicit maps
        is projected here.
        """
        integrators = self.sources(len(bundles))
        target = bundles[0].grid
        rows = bundles[0].rows
        for bundle in bundles:
            if (target is None or bundle.grid is None) and bundle.rows != rows:
                raise ShapeError(
                    f"integrate_self: row-count mismatch, {bundle.rows} vs "
                    f"{rows}; bundles without a grid must share the first one's rows"
                )
        total: Tensor | None = None
        for bundle, integrator in zip(bundles, integrators):
            if bundle.factors is None:
                proj = head_linear(bundle.stacked, integrator.w, integrator.b)
            elif integrator in bundle.projections:
                proj = bundle.projections[integrator]
            else:
                raise ShapeError(
                    "integrate_self: a self-attention bundle carries no projection "
                    "for this integrator; list it in the layer's readers"
                )
            if target is not None and bundle.grid not in (None, target):
                proj = upsample_bilinear(proj, bundle.grid, target)
            total = proj if total is None else total + proj
        assert total is not None
        return total

    def integrate_cross(self, bundle: AttentionBundle) -> Tensor:
        """Fuse a class-normalized cross bundle into an N x d_A map.

        Head maps are transposed to patch-major layout before concatenation.
        Bundles normalized over the patch axis are rejected: their rows
        describe patch importance per class, not class evidence per patch.
        """
        if bundle.kind != CROSS_GATED_KIND or bundle.softmax_axis != 0:
            raise ShapeError(
                "integrate_cross: bundle must carry class-axis-normalized maps, "
                f"got kind={bundle.kind!r} softmax_axis={bundle.softmax_axis}"
            )
        integrator = self.integrators[0]
        return head_linear(transpose(bundle.stacked), integrator.w, integrator.b)

    def gate(self, a: Tensor) -> ScaleGates:
        """Predict gates from an integrated map: softmax(MLP(norm(a)))."""
        logits = self.mlp(self.norm(a))
        return ScaleGates(gates=softmax(logits, axis=-1))


def gated_sum(features: list[Tensor], gates: Tensor) -> Tensor:
    """Per-patch convex combination: sum_s gates[:, s] * features[s].

    ``gates`` is (..., N, S) with one column per feature map. Callers may pass a
    constant (non-stochastic) gate matrix, e.g. all-ones to recover a plain
    unweighted sum.
    """
    if gates.shape[-1] != len(features):
        raise ShapeError(
            f"gated_sum: {len(features)} feature maps vs gate width {gates.shape[-1]}"
        )
    total: Tensor | None = None
    for s, f in enumerate(features):
        if f.shape[-2] != gates.shape[-2]:
            raise ShapeError(
                f"gated_sum: feature rows {f.shape[-2]} != gate rows {gates.shape[-2]}"
            )
        term = mul(narrow(gates, -1, s, 1), f)
        total = term if total is None else total + term
    assert total is not None
    return total
