"""The batched core against per-sample runs, in float64.

One forward over a (B, H, W, 3) batch must reproduce B unbatched forwards
(scores, encoder and decoder gates, stacked attention maps), and the
gradient of the batched mean loss must be the mean of the per-sample
gradients. The unbatched path is itself checked against the loop-based
oracles elsewhere, so these tests tie the batched path to them too.
"""

import numpy as np
import pytest

import helpers
from tsgseg.attention import DecoderBlock, MhaConfig
from tsgseg.model import build_model
from tsgseg.tensor import Tensor, cross_entropy

B = 3
TOL = 1e-10
VARIANTS = [
    {},
    {"encoder_fusion": "fpn", "decoder_fusion": "sum"},
    {"encoder_fusion": "none", "decoder_fusion": "tsg"},
    {"encoder_fusion": "single", "decoder_fusion": "sum", "single_stage": 2},
    {"shared_tsg": True},
]


def gated_model(seed: int = 21, **over):
    """Tiny model whose gates and queries depend on the input."""
    model = build_model(helpers.tiny_model_config(**over), seed=seed)
    rng = np.random.default_rng(seed)
    helpers.randomize_gate_mlps(model, rng)
    for name, p in model.named_parameters():
        if name.endswith("queries"):
            p.data = 0.3 * rng.standard_normal(p.shape)
    return model


def image_batch(seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).uniform(size=(B, 16, 16, 3))


def assert_close(batched, single):
    assert batched.shape == single.shape
    np.testing.assert_allclose(batched, single, rtol=0, atol=TOL)


class TestBatchedForward:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_scores_and_gates_match_unbatched(self, variant):
        model = gated_model(**variant)
        images = image_batch()
        batched = model(Tensor(images))
        assert batched.scores.shape == (B, 16, 4)
        for i in range(B):
            single = model(Tensor(images[i]))
            assert single.scores.shape == (16, 4)
            assert_close(batched.scores.data[i], single.scores.data)
            for kind in ("encoder_gates", "decoder_gates"):
                got, want = getattr(batched, kind), getattr(single, kind)
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    assert_close(g.gates.data[i], w.gates.data)

    def test_forced_gates_match_unbatched(self):
        model = gated_model()
        images = image_batch(1)
        batched = model(Tensor(images), forced_gates=1.0)
        for i in range(B):
            single = model(Tensor(images[i]), forced_gates=1.0)
            assert_close(batched.scores.data[i], single.scores.data)

    def test_backbone_maps_match_unbatched(self):
        model = gated_model()
        images = image_batch(2)
        features, bundles = model.backbone(Tensor(images))
        for i in range(B):
            feats_i, bundles_i = model.backbone(Tensor(images[i]))
            for f, fi in zip(features, feats_i):
                assert_close(f.data.data[i], fi.data.data)
            for b, bi in zip(bundles, bundles_i):
                assert b.stacked.shape == (B,) + bi.stacked.shape
                assert b.grid == bi.grid and b.heads == bi.heads
                assert_close(b.stacked.data[i], bi.stacked.data)
                for m, mi in zip(b.maps, bi.maps):
                    assert_close(m.data[i], mi.data)

    def test_decoder_block_maps_match_unbatched(self):
        # Unbatched queries attend to a batch of memories, as in the first
        # decoder block; the batch axis appears where the two meet.
        rng = np.random.default_rng(3)
        block = DecoderBlock(MhaConfig(heads=2, model_dim=6), 6, rng)
        queries = Tensor(rng.normal(size=(4, 6)))
        memory = rng.normal(size=(B, 9, 6))
        out, b_self, b_cross, b_gated = block(queries, Tensor(memory))
        assert out.shape == (B, 4, 6)
        assert b_cross.stacked.shape == (B, 2, 4, 9)
        for i in range(B):
            out_i, _, cross_i, gated_i = block(queries, Tensor(memory[i]))
            assert_close(out.data[i], out_i.data)
            assert_close(b_cross.stacked.data[i], cross_i.stacked.data)
            assert_close(b_gated.stacked.data[i], gated_i.stacked.data)
        np.testing.assert_allclose(b_gated.stacked.data.sum(axis=-2), 1.0, atol=1e-12)


class TestBatchedGradient:
    @pytest.mark.parametrize("variant", VARIANTS[:2])
    def test_mean_loss_gradient_is_mean_of_per_sample_gradients(self, variant):
        model = gated_model(**variant)
        images = image_batch(4)
        labels = np.random.default_rng(4).integers(0, 4, size=(B, 16))
        params = model.named_parameters()

        for _, p in params:
            p.grad = None
        cross_entropy(model(Tensor(images)).scores, labels).backward()
        batched = {name: p.grad.copy() for name, p in params}

        mean = {name: np.zeros_like(p.data) for name, p in params}
        for i in range(B):
            for _, p in params:
                p.grad = None
            cross_entropy(model(Tensor(images[i])).scores, labels[i]).backward()
            for name, p in params:
                mean[name] += p.grad / B
        for name, _ in params:
            np.testing.assert_allclose(batched[name], mean[name], rtol=0, atol=TOL,
                                       err_msg=name)
