"""Multi-head attention layers that expose their per-head attention maps.

Both the token mixer in the encoder and the query/memory mixer in the
decoder return an :class:`AttentionBundle` alongside their features, because
downstream gating consumes the maps themselves. Both share one core: the
query, key, value and output projections and the attention product. The
cross-attention layer can additionally normalize its logits over the class
axis, producing a second bundle used only for gating; one logit product
feeds both softmaxes, and the feature path is unaffected.

All heads run as one product over a (..., heads, tokens, head_dim) stack, so
a layer's graph size depends on neither its head count nor the batch size.
A self-attention layer is one ``self_attention`` node that never holds its
map: it also computes the projection of every gate integrator declared to
read the map, and its bundle carries those projections plus the queries and
keys, from which the map itself is formed only when read. A cross-attention
map is ``softmax(matmul(scale(q, c), k))`` over plain ops: it is classes x
patches, small enough that nothing is gained by fusing the softmax into the
product, and the logits are freed once its softmaxes have run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .module import LayerNorm, Linear, Mlp, Module
from .tensor import (ShapeError, Tensor, concat, matmul, narrow, permute, reshape, scale,
                     self_attention, softmax)

# Which axis of each stored map was softmax-normalized.
SELF_KIND = "self"            # N x N, rows sum to 1 (axis 1, over keys)
CROSS_KIND = "cross"          # C x N, rows sum to 1 (axis 1, over patches)
CROSS_GATED_KIND = "cross_gated"  # C x N, columns sum to 1 (axis 0, over classes)


@dataclass
class MhaConfig:
    """Head count and model width for one attention module."""

    heads: int
    model_dim: int

    def __post_init__(self):
        if self.heads < 1:
            raise ShapeError(f"attention needs at least 1 head, got {self.heads}")
        if self.model_dim % self.heads != 0:
            raise ShapeError(
                f"model_dim {self.model_dim} not divisible by {self.heads} heads"
            )

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.heads


class AttentionBundle:
    """Attention maps of every head, retained for gate computation.

    ``stacked`` holds all heads as one (..., heads, R, K) tensor; leading
    axes are batch axes. ``maps`` may be given as that tensor or as a list
    of per-head (..., R, K) maps, which are stacked. ``softmax_axis`` names
    the normalized axis of one head's R x K map (1: over keys, 0: over
    rows). ``grid`` records the spatial layout of the row axis for
    self-attention maps (rows correspond to grid cells); cross maps have
    class-indexed rows and carry no grid.

    A self-attention layer passes no maps but their ``factors``: its
    (..., R, heads * d) queries and keys, the head count and the logit scale
    c, so that ``stacked`` forms each head's ``softmax(c * q_h @ k_h^T)``
    over keys only when read. Its ``projections`` map each integrator
    declared to read the map to that integrator's (..., R, d_A) projection
    of it.
    """

    def __init__(self, maps: Tensor | list[Tensor] | None, softmax_axis: int, kind: str,
                 grid: tuple[int, int] | None = None, *,
                 factors: tuple[Tensor, Tensor, int, float] | None = None,
                 projections: dict[Linear, Tensor] | None = None):
        if maps is not None and not isinstance(maps, Tensor):
            maps = concat([reshape(m, m.shape[:-2] + (1,) + m.shape[-2:]) for m in maps],
                          axis=-3)
        self._stacked = maps
        self.factors = factors
        self.projections = projections or {}
        self.softmax_axis = softmax_axis
        self.kind = kind
        self.grid = grid

    @property
    def stacked(self) -> Tensor:
        """The (..., heads, R, K) maps; formed from ``factors`` on first read."""
        if self._stacked is None:
            q, k, heads, c = self.factors
            self._stacked = softmax(matmul(scale(_split_heads(q, heads), c),
                                           _split_heads(k, heads, keys=True)), -1)
        return self._stacked

    @property
    def heads(self) -> int:
        return self.factors[2] if self._stacked is None else self._stacked.shape[-3]

    @property
    def rows(self) -> int:
        return (self.factors[0] if self._stacked is None else self._stacked).shape[-2]

    @property
    def maps(self) -> list[Tensor]:
        """Per-head (..., R, K) maps, each a differentiable slice of ``stacked``."""
        shape = self.stacked.shape[:-3] + self.stacked.shape[-2:]
        return [reshape(narrow(self.stacked, -3, h, 1), shape) for h in range(self.heads)]


def _split_heads(t: Tensor, heads: int, keys: bool = False) -> Tensor:
    """(..., N, heads * d_h) -> (..., heads, N, d_h), or (..., heads, d_h, N)
    with ``keys``, ready to be the right operand of the logit product."""
    t = reshape(t, t.shape[:-1] + (heads, t.shape[-1] // heads))
    return permute(t, (1, 2, 0) if keys else (1, 0, 2))


def concat_heads(stack: Tensor) -> Tensor:
    """(..., heads, R, K) -> (..., R, heads * K): the head maps concatenated
    along their column axis."""
    t = permute(stack, (1, 0, 2))
    return reshape(t, t.shape[:-2] + (t.shape[-2] * t.shape[-1],))


class _Attention(Module):
    """The core both attention layers share: the query, key, value and
    output projections, built in that order."""

    def __init__(self, cfg: MhaConfig, rng: np.random.Generator):
        self.cfg = cfg
        d = cfg.model_dim
        self.wq = Linear(d, d, rng)
        self.wk = Linear(d, d, rng)
        self.wv = Linear(d, d, rng)
        self.wo = Linear(d, d, rng)

    def _project(self, queries: Tensor, memory: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        """The (..., R, model_dim) queries and (..., K, model_dim) keys and
        values of attending from ``queries`` to ``memory``."""
        cfg = self.cfg
        if queries.shape[-1] != cfg.model_dim or memory.shape[-1] != cfg.model_dim:
            raise ShapeError(
                f"{type(self).__name__}: queries {queries.shape} / memory {memory.shape} "
                f"must both have width {cfg.model_dim}"
            )
        return self.wq(queries), self.wk(memory), self.wv(memory)


class MultiheadSelfAttention(_Attention):
    """Token-to-token attention; returns features and the per-head maps.

    ``readers`` lists the gate integrators that read this layer's map; the
    bundle carries each one's projection of it (``tensor.self_attention``).
    """

    def __call__(self, tokens: Tensor,
                 readers: list[Linear] = ()) -> tuple[Tensor, AttentionBundle]:
        cfg = self.cfg
        q, k, v = self._project(tokens, tokens)
        c = 1.0 / math.sqrt(cfg.head_dim)
        out = self_attention(q, k, v, cfg.heads, c, [(r.w, r.b) for r in readers])
        projections, start = {}, cfg.model_dim
        for r in readers:
            projections[r] = narrow(out, -1, start, r.w.shape[1])
            start += r.w.shape[1]
        if readers:
            out = narrow(out, -1, 0, cfg.model_dim)
        return self.wo(out), AttentionBundle(None, softmax_axis=1, kind=SELF_KIND,
                                             factors=(q, k, cfg.heads, c),
                                             projections=projections)


class MultiheadCrossAttention(_Attention):
    """Query-to-memory attention with an optional class-axis renormalization.

    The feature output always uses the patch-axis softmax. When
    ``gate_softmax`` is requested, the same logits are also normalized over
    the class axis and returned as a separate bundle for gating.
    """

    def __call__(
        self, queries: Tensor, memory: Tensor, gate_softmax: bool = False
    ) -> tuple[Tensor, AttentionBundle, AttentionBundle | None]:
        cfg = self.cfg
        q, k, v = self._project(queries, memory)
        q, k = _split_heads(q, cfg.heads), _split_heads(k, cfg.heads, keys=True)
        logits = matmul(scale(q, 1.0 / math.sqrt(cfg.head_dim)), k)
        att = softmax(logits, -1)
        out = self.wo(concat_heads(matmul(att, _split_heads(v, cfg.heads))))
        gated = None
        if gate_softmax:
            gated = AttentionBundle(softmax(logits, -2), softmax_axis=0, kind=CROSS_GATED_KIND)
        return out, AttentionBundle(att, softmax_axis=1, kind=CROSS_KIND), gated


class EncoderBlock(Module):
    """Pre-norm residual block: attention then MLP, each behind a layernorm."""

    def __init__(self, cfg: MhaConfig, mlp_dim: int, rng: np.random.Generator):
        d = cfg.model_dim
        self.norm1 = LayerNorm(d)
        self.attn = MultiheadSelfAttention(cfg, rng)
        self.norm2 = LayerNorm(d)
        self.mlp = Mlp(d, mlp_dim, d, rng)

    def __call__(self, tokens: Tensor,
                 readers: list[Linear] = ()) -> tuple[Tensor, AttentionBundle]:
        """``readers`` are the gate integrators that read the block's map."""
        attended, bundle = self.attn(self.norm1(tokens), readers)
        tokens = tokens + attended
        tokens = tokens + self.mlp(self.norm2(tokens))
        return tokens, bundle


class DecoderBlock(Module):
    """Pre-norm residual block over queries: self-attention, cross-attention
    to the memory, then an MLP. The memory enters the cross-attention
    unnormalized; only the query stream is layer-normalized."""

    def __init__(self, cfg: MhaConfig, mlp_dim: int, rng: np.random.Generator):
        d = cfg.model_dim
        self.norm1 = LayerNorm(d)
        self.self_attn = MultiheadSelfAttention(cfg, rng)
        self.norm2 = LayerNorm(d)
        self.cross_attn = MultiheadCrossAttention(cfg, rng)
        self.norm3 = LayerNorm(d)
        self.mlp = Mlp(d, mlp_dim, d, rng)

    def __call__(
        self, queries: Tensor, memory: Tensor, gate_softmax: bool = True
    ) -> tuple[Tensor, AttentionBundle, AttentionBundle, AttentionBundle | None]:
        """Without ``gate_softmax`` the class-normalized bundle is None."""
        attended, b_self = self.self_attn(self.norm1(queries))
        queries = queries + attended
        crossed, b_cross, b_gated = self.cross_attn(self.norm2(queries), memory,
                                                    gate_softmax)
        queries = queries + crossed
        queries = queries + self.mlp(self.norm3(queries))
        return queries, b_self, b_cross, b_gated
