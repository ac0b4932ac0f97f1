"""Shared glue for the test suite: parameter extraction, tiny builders and
the per-dtype tolerance of a value checked against a float64 oracle.

The oracle functions take plain numpy arrays; these helpers pull the arrays
out of package modules so both sides compute from identical numbers.
"""

from __future__ import annotations

import numpy as np

from tsgseg.attention import DecoderBlock, EncoderBlock
from tsgseg.config import RunConfig
from tsgseg.module import LayerNorm, Linear, Mlp, Module
from tsgseg.scale_gate import TsgHead


RTOL = {np.float64: 1e-12, np.float32: 1e-5}


def assert_rel_close(actual, expected, dtype):
    """``actual`` within the dtype's rtol of ``expected``, relative to its
    largest entry, so entries near zero do not need a separate bound."""
    tol = RTOL[dtype] * max(1.0, float(np.max(np.abs(expected))))
    np.testing.assert_allclose(actual, expected, rtol=RTOL[dtype], atol=tol)


def lin_params(layer: Linear) -> dict:
    return {"w": layer.w.data.copy(), "b": layer.b.data.copy()}


def norm_params(norm: LayerNorm) -> dict:
    return {"gamma": norm.gamma.data.copy(), "beta": norm.beta.data.copy()}


def mlp_params(mlp: Mlp) -> dict:
    return {"w1": mlp.fc1.w.data.copy(), "b1": mlp.fc1.b.data.copy(),
            "w2": mlp.fc2.w.data.copy(), "b2": mlp.fc2.b.data.copy()}


def mha_params(attn) -> dict:
    return {"wq": attn.wq.w.data.copy(), "bq": attn.wq.b.data.copy(),
            "wk": attn.wk.w.data.copy(), "bk": attn.wk.b.data.copy(),
            "wv": attn.wv.w.data.copy(), "bv": attn.wv.b.data.copy(),
            "wo": attn.wo.w.data.copy(), "bo": attn.wo.b.data.copy()}


def encoder_block_params(block: EncoderBlock) -> dict:
    return {"norm1": norm_params(block.norm1), "attn": mha_params(block.attn),
            "norm2": norm_params(block.norm2), "mlp": mlp_params(block.mlp)}


def decoder_block_params(block: DecoderBlock) -> dict:
    return {"norm1": norm_params(block.norm1),
            "self_attn": mha_params(block.self_attn),
            "norm2": norm_params(block.norm2),
            "cross_attn": mha_params(block.cross_attn),
            "norm3": norm_params(block.norm3), "mlp": mlp_params(block.mlp)}


def head_params(head: TsgHead) -> dict:
    return {"integrators": [lin_params(l) for l in head.integrators],
            "norm": norm_params(head.norm), "mlp": mlp_params(head.mlp)}


def tiny_model_config(**overrides) -> RunConfig:
    """Smallest config exercising all three stages and gated fusion."""
    base = dict(
        height=16, width=16, patch_size=4, stage_dims=(4, 6, 8),
        stage_heads=(2, 2, 2), stage_blocks=(1, 1, 1),
        mlp_ratio=1.0, d_f=8, d_a=6, tsg_hidden=6, decoder_blocks=3,
        decoder_heads=2, num_classes=4, encoder_fusion="tsg",
        decoder_fusion="tsg",
    )
    base.update(overrides)
    return RunConfig(**base)


def randomize_gate_mlps(root, rng: np.random.Generator, std: float = 0.3):
    """Give every gate head's zero-initialized output layer random weights.

    Fresh heads emit uniform gates by construction; tests that need
    input-dependent gates perturb them first.
    """
    for module in _modules(root):
        if isinstance(module, TsgHead):
            fc2 = module.mlp.fc2
            fc2.w.data = rng.normal(0.0, std, size=fc2.w.shape).astype(fc2.w.dtype)
            fc2.b.data = rng.normal(0.0, std, size=fc2.b.shape).astype(fc2.b.dtype)


def _modules(root: Module):
    """Depth-first walk over unique modules, root included.

    The visiting order fixes the order of the random draws above.
    """
    seen: set[int] = set()
    stack = [root]
    while stack:
        m = stack.pop()
        if id(m) in seen:
            continue
        seen.add(id(m))
        yield m
        for value in vars(m).values():
            stack.extend(_child_modules(value))


def _child_modules(value) -> list[Module]:
    if isinstance(value, Module):
        return [value]
    if isinstance(value, (list, tuple)):
        return [m for item in value for m in _child_modules(item)]
    return []
