"""Class-query decoder: per-block memory fusion, the block recursion
against a loop reference, class scores, and patch labels copied to pixels."""

import numpy as np
import pytest

import helpers
import oracles
from tsgseg.attention import CROSS_GATED_KIND, CROSS_KIND, AttentionBundle
from tsgseg.decoder import (
    Decoder,
    labels_to_mask,
    predict_scores,
    tsgd_fuse,
    tsgd_fuse_first,
)
from tsgseg.encoder import FeatureMap
from tsgseg.scale_gate import TsgHead
from tsgseg.tensor import ShapeError, Tensor, mul, tsum

C, D_F, HEADS = 4, 8, 2
GRIDS = [(4, 4), (2, 2), (1, 1)]
TARGET = (4, 4)
N = 16


def pyramid_features(rng):
    return [FeatureMap(Tensor(rng.normal(size=(g[0] * g[1], D_F))), g[0], g[1], s + 1)
            for s, g in enumerate(GRIDS)]


def make_decoder(rng, blocks=3, fusion="tsg", **kwargs) -> Decoder:
    return Decoder(num_blocks=blocks, num_classes=C, d_f=D_F, heads=HEADS,
                   mlp_dim=D_F, num_scales=3, d_a=6, hidden=5, rng=rng,
                   fusion=fusion, **kwargs)


def gated_bundle(rng, classes=C, n=N, heads=HEADS):
    maps = [Tensor(oracles.softmax2d(rng.normal(size=(classes, n)), axis=0))
            for _ in range(heads)]
    return AttentionBundle(maps=maps, softmax_axis=0, kind=CROSS_GATED_KIND)


class TestFuseFirst:
    def test_plain_sum(self):
        rng = np.random.default_rng(0)
        feats = [rng.normal(size=(6, 3)) for _ in range(3)]
        out = tsgd_fuse_first([Tensor(f) for f in feats])
        np.testing.assert_allclose(out.data, feats[0] + feats[1] + feats[2])

    def test_validation(self):
        with pytest.raises(ShapeError):
            tsgd_fuse_first([])
        with pytest.raises(ShapeError, match="mixed"):
            tsgd_fuse_first([Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4)))])


class TestFuse:
    def test_matches_reference_composition(self):
        rng = np.random.default_rng(1)
        head = TsgHead([HEADS * C], d_a=6, hidden=5, num_scales=3, rng=rng)
        helpers.randomize_gate_mlps(head, rng)
        feats = [rng.normal(size=(N, D_F)) for _ in range(3)]
        bundle = gated_bundle(rng)
        out, gates = tsgd_fuse([Tensor(f) for f in feats], bundle, head)
        a = oracles.integrate_cross_maps(
            [m.data for m in bundle.maps],
            helpers.lin_params(head.integrators[0]))
        g = oracles.gate(a, helpers.head_params(head))
        np.testing.assert_allclose(gates.gates.data, g, atol=1e-12)
        np.testing.assert_allclose(out.data, oracles.gated_sum(feats, g),
                                   atol=1e-12)

    def test_scale_count_mismatch(self):
        rng = np.random.default_rng(2)
        head = TsgHead([HEADS * C], d_a=6, hidden=5, num_scales=3, rng=rng)
        with pytest.raises(ShapeError, match="2 feature maps vs gate width 3"):
            tsgd_fuse([Tensor(np.zeros((N, D_F)))] * 2, gated_bundle(rng), head)

    def test_patch_normalized_maps_rejected(self):
        rng = np.random.default_rng(3)
        head = TsgHead([HEADS * C], d_a=6, hidden=5, num_scales=3, rng=rng)
        maps = [Tensor(oracles.softmax2d(rng.normal(size=(C, N)), axis=1))
                for _ in range(HEADS)]
        wrong = AttentionBundle(maps=maps, softmax_axis=1, kind=CROSS_KIND)
        with pytest.raises(ShapeError):
            tsgd_fuse([Tensor(np.zeros((N, D_F)))] * 3, wrong, head)


class TestDecoder:
    def test_queries_start_at_zero(self):
        dec = make_decoder(np.random.default_rng(4))
        np.testing.assert_array_equal(dec.queries.data, np.zeros((C, D_F)))

    def test_three_block_run_matches_reference(self):
        rng = np.random.default_rng(5)
        dec = make_decoder(rng)
        helpers.randomize_gate_mlps(dec, rng)
        dec.queries.data = rng.normal(size=(C, D_F))
        features = pyramid_features(rng)
        queries, gates_out, memory = dec(features, TARGET)

        ups = [oracles.upsample_rows(fm.data.data, fm.grid, TARGET)
               for fm in features]
        q = dec.queries.data.copy()
        mem = ups[0] + ups[1] + ups[2]
        prev_gated = None
        for i, block in enumerate(dec.blocks):
            if i > 0:
                a = oracles.integrate_cross_maps(
                    prev_gated,
                    helpers.lin_params(dec.gate_heads[i - 1].integrators[0]))
                g = oracles.gate(a, helpers.head_params(dec.gate_heads[i - 1]))
                np.testing.assert_allclose(gates_out[i - 1].gates.data, g,
                                           atol=1e-9)
                mem = oracles.gated_sum(ups, g)
            q, _, _, prev_gated = oracles.decoder_block(
                q, mem, helpers.decoder_block_params(block), HEADS)
        np.testing.assert_allclose(queries.data, q, atol=1e-9)
        np.testing.assert_allclose(memory.data, mem, atol=1e-9)
        assert len(gates_out) == 2
        assert all(g.gates.shape == (N, 3) for g in gates_out)

    def test_sum_fusion_repeats_plain_sum(self):
        rng = np.random.default_rng(6)
        dec = make_decoder(rng, fusion="sum")
        assert dec.gate_heads == []
        features = pyramid_features(rng)
        _, gates_out, memory = dec(features, TARGET)
        assert gates_out == []
        ups = [oracles.upsample_rows(fm.data.data, fm.grid, TARGET)
               for fm in features]
        np.testing.assert_allclose(memory.data, ups[0] + ups[1] + ups[2],
                                   atol=1e-9)

    def test_forced_gates_bypass_heads(self):
        rng = np.random.default_rng(7)
        dec = make_decoder(rng)
        helpers.randomize_gate_mlps(dec, rng)
        features = pyramid_features(rng)
        _, gates_out, memory = dec(features, TARGET, forced_gates=1.0)
        for g in gates_out:
            np.testing.assert_array_equal(g.gates.data, np.ones((N, 3)))
        ups = [oracles.upsample_rows(fm.data.data, fm.grid, TARGET)
               for fm in features]
        np.testing.assert_allclose(memory.data, ups[0] + ups[1] + ups[2],
                                   atol=1e-9)

    def test_fresh_gate_heads_emit_uniform_gates(self):
        rng = np.random.default_rng(8)
        dec = make_decoder(rng)
        _, gates_out, _ = dec(pyramid_features(rng), TARGET)
        for g in gates_out:
            np.testing.assert_allclose(g.gates.data, np.full((N, 3), 1 / 3))

    def test_shared_head_single_parameter_set(self):
        rng = np.random.default_rng(9)
        dec = make_decoder(rng, shared_head=True)
        assert dec.gate_heads[0] is dec.gate_heads[1]
        names = [n for n, _ in dec.named_parameters()]
        assert len(names) == len(set(names))
        solo = make_decoder(np.random.default_rng(9))
        assert len(names) < len(solo.named_parameters())

    def test_one_block_decoder_builds_no_heads(self):
        dec = make_decoder(np.random.default_rng(10), blocks=1)
        assert dec.gate_heads == []
        _, gates_out, _ = dec(pyramid_features(np.random.default_rng(10)), TARGET)
        assert gates_out == []

    def test_gradient_reaches_queries_and_features(self):
        rng = np.random.default_rng(12)
        dec = make_decoder(rng, blocks=2)
        helpers.randomize_gate_mlps(dec, rng)
        dec.queries.data = rng.normal(size=(C, D_F))
        features = pyramid_features(rng)
        w = rng.normal(size=(C, D_F))
        f0 = features[1].data.data.copy()

        def build(t):
            feats = list(features)
            feats[1] = FeatureMap(t, 2, 2, stage=2)
            q, _, _ = dec(feats, TARGET)
            return tsum(mul(q, Tensor(w)))

        x = Tensor(f0.copy(), requires_grad=True)
        build(x).backward()
        fd = oracles.finite_difference(lambda a: float(build(Tensor(a)).data), f0)
        assert oracles.rel_err(x.grad, fd) <= 1e-6

        q0 = dec.queries.data.copy()
        dec.queries.requires_grad = True
        dec.queries.zero_grad()
        q, _, _ = dec(features, TARGET)
        tsum(mul(q, Tensor(w))).backward()
        g = dec.queries.grad.copy()

        def f_q(a):
            dec.queries.data = a
            q2, _, _ = dec(features, TARGET)
            val = float(tsum(mul(q2, Tensor(w))).data)
            dec.queries.data = q0
            return val

        fd = oracles.finite_difference(f_q, q0)
        assert oracles.rel_err(g, fd) <= 1e-6


class TestPrediction:
    def test_scores_formula(self):
        rng = np.random.default_rng(13)
        f = rng.normal(size=(6, D_F))
        y = rng.normal(size=(C, D_F))
        got = predict_scores(Tensor(f), Tensor(y)).data
        np.testing.assert_allclose(got, f @ y.T / np.sqrt(D_F), atol=1e-12)

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            predict_scores(Tensor(np.zeros((4, 6))), Tensor(np.zeros((3, 8))))


class TestMask:
    def test_replication(self):
        mask = labels_to_mask(np.array([2, 1, 0, 1]), (2, 2), (4, 4))
        assert mask.shape == (4, 4)
        expect = np.repeat(np.repeat(np.array([[2, 1], [0, 1]]), 2, 0), 2, 1)
        np.testing.assert_array_equal(mask, expect)

    def test_label_count_must_match_grid(self):
        with pytest.raises(ShapeError, match=r"\(5,\) do not fit grid \(2, 2\)"):
            labels_to_mask(np.zeros(5, dtype=np.int64), (2, 2), (4, 4))

    def test_indivisible_size_rejected(self):
        with pytest.raises(ShapeError):
            labels_to_mask(np.zeros(4, dtype=np.int64), (2, 2), (5, 4))
