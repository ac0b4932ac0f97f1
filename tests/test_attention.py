"""Attention layers against loop-based references, plus the structural
invariants the gate heads rely on (map normalization, bundle metadata)."""

import numpy as np
import pytest

import helpers
import oracles
from tsgseg.attention import (
    CROSS_GATED_KIND,
    CROSS_KIND,
    SELF_KIND,
    AttentionBundle,
    DecoderBlock,
    EncoderBlock,
    MhaConfig,
    MultiheadCrossAttention,
    MultiheadSelfAttention,
)
from tsgseg.tensor import ShapeError, Tensor, mul, tsum


def make_self(heads=2, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    return MultiheadSelfAttention(MhaConfig(heads, dim), rng), rng


def make_cross(heads=2, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    return MultiheadCrossAttention(MhaConfig(heads, dim), rng), rng


class TestConfig:
    def test_head_dim(self):
        assert MhaConfig(2, 8).head_dim == 4

    def test_indivisible_width_rejected(self):
        with pytest.raises(ShapeError):
            MhaConfig(3, 8)

    @pytest.mark.parametrize("heads", [0, -2])
    def test_head_count_below_one_rejected(self, heads):
        with pytest.raises(ShapeError, match="at least 1 head"):
            MhaConfig(heads=heads, model_dim=4)


class TestSelfAttention:
    def test_matches_loop_reference(self):
        attn, rng = make_self(heads=2, dim=4, seed=1)
        x = rng.normal(size=(3, 4))
        out, bundle = attn(Tensor(x))
        ref_out, ref_maps = oracles.self_attention(x, helpers.mha_params(attn), 2)
        np.testing.assert_allclose(out.data, ref_out, atol=1e-9)
        assert bundle.heads == 2
        for m, ref in zip(bundle.maps, ref_maps):
            np.testing.assert_allclose(m.data, ref, atol=1e-9)

    def test_maps_are_row_stochastic(self):
        attn, rng = make_self(heads=2, dim=6, seed=2)
        x = rng.normal(size=(5, 6))
        _, bundle = attn(Tensor(x))
        assert bundle.kind == SELF_KIND and bundle.softmax_axis == 1
        for m in bundle.maps:
            assert m.shape == (5, 5)
            np.testing.assert_allclose(m.data.sum(axis=1), np.ones(5), atol=1e-9)
            assert np.all(m.data > 0)

    def test_permutation_equivariance(self):
        attn, rng = make_self(heads=2, dim=4, seed=3)
        x = rng.normal(size=(6, 4))
        perm = rng.permutation(6)
        out, bundle = attn(Tensor(x))
        out_p, bundle_p = attn(Tensor(x[perm]))
        np.testing.assert_allclose(out_p.data, out.data[perm], atol=1e-12)
        for m, mp in zip(bundle.maps, bundle_p.maps):
            np.testing.assert_allclose(mp.data, m.data[perm][:, perm], atol=1e-12)

    def test_identical_tokens_give_uniform_maps(self):
        attn, _ = make_self(heads=2, dim=4, seed=4)
        x = np.tile(np.array([0.3, -1.2, 0.7, 2.0]), (5, 1))
        _, bundle = attn(Tensor(x))
        for m in bundle.maps:
            np.testing.assert_allclose(m.data, np.full((5, 5), 0.2), atol=1e-12)

    def test_per_head_output_inside_value_envelope(self):
        # With wo = identity, head h of the output is att_h @ v_h, a convex
        # mix of value rows, so every entry sits inside that head's range.
        attn, rng = make_self(heads=2, dim=4, seed=5)
        attn.wo.w.data = np.eye(4)
        attn.wo.b.data = np.zeros(4)
        x = rng.normal(size=(7, 4))
        out, _ = attn(Tensor(x))
        v = oracles.linear2d(x, attn.wv.w.data, attn.wv.b.data)
        for h in range(2):
            vh = v[:, 2 * h:2 * h + 2]
            oh = out.data[:, 2 * h:2 * h + 2]
            assert np.all(oh >= vh.min(axis=0) - 1e-12)
            assert np.all(oh <= vh.max(axis=0) + 1e-12)

    def test_width_mismatch_rejected(self):
        attn, _ = make_self(heads=2, dim=4)
        with pytest.raises(ShapeError):
            attn(Tensor(np.zeros((3, 6))))

    def test_gradients_through_output_and_maps(self):
        attn, rng = make_self(heads=2, dim=4, seed=6)
        w_out = rng.normal(size=(3, 4))
        w_map = rng.normal(size=(3, 3))

        def loss_out(t):
            out, _ = attn(t)
            return tsum(mul(out, Tensor(w_out)))

        def loss_map(t):
            _, bundle = attn(t)
            return tsum(mul(bundle.maps[1], Tensor(w_map)))

        for _ in range(5):
            x0 = rng.normal(size=(3, 4))
            for build in (loss_out, loss_map):
                x = Tensor(x0.copy(), requires_grad=True)
                build(x).backward()
                fd = oracles.finite_difference(
                    lambda a: float(build(Tensor(a)).data), x0)
                assert oracles.rel_err(x.grad, fd) <= 1e-6

    def test_parameter_gradients(self):
        attn, rng = make_self(heads=2, dim=4, seed=7)
        x = Tensor(rng.normal(size=(3, 4)))
        w_out = rng.normal(size=(3, 4))
        for p_name in ("wq", "wk", "wv", "wo"):
            layer = getattr(attn, p_name)
            out, _ = attn(x)
            loss = tsum(mul(out, Tensor(w_out)))
            for _, t in attn.named_parameters():
                t.grad = None
            loss.backward()
            g = layer.w.grad.copy()
            w0 = layer.w.data.copy()

            def f(a):
                layer.w.data = a
                out2, _ = attn(x)
                val = float(tsum(mul(out2, Tensor(w_out))).data)
                layer.w.data = w0
                return val

            fd = oracles.finite_difference(f, w0)
            assert oracles.rel_err(g, fd) <= 1e-6


class TestCrossAttention:
    def test_matches_loop_reference(self):
        attn, rng = make_cross(heads=2, dim=4, seed=8)
        q = rng.normal(size=(3, 4))
        mem = rng.normal(size=(6, 4))
        out, bundle, gated = attn(Tensor(q), Tensor(mem), gate_softmax=True)
        ref_out, ref_maps, ref_gated = oracles.cross_attention(
            q, mem, helpers.mha_params(attn), 2)
        np.testing.assert_allclose(out.data, ref_out, atol=1e-9)
        for m, ref in zip(bundle.maps, ref_maps):
            np.testing.assert_allclose(m.data, ref, atol=1e-9)
        for m, ref in zip(gated.maps, ref_gated):
            np.testing.assert_allclose(m.data, ref, atol=1e-9)

    def test_map_normalization_axes(self):
        attn, rng = make_cross(heads=2, dim=4, seed=9)
        q, mem = rng.normal(size=(4, 4)), rng.normal(size=(9, 4))
        _, bundle, gated = attn(Tensor(q), Tensor(mem), gate_softmax=True)
        assert bundle.kind == CROSS_KIND and bundle.softmax_axis == 1
        assert gated.kind == CROSS_GATED_KIND and gated.softmax_axis == 0
        for m in bundle.maps:
            assert m.shape == (4, 9)
            np.testing.assert_allclose(m.data.sum(axis=1), np.ones(4), atol=1e-9)
        for m in gated.maps:
            assert m.shape == (4, 9)
            np.testing.assert_allclose(m.data.sum(axis=0), np.ones(9), atol=1e-9)

    def test_gate_softmax_off_returns_none(self):
        attn, rng = make_cross(seed=10)
        out, bundle, gated = attn(Tensor(rng.normal(size=(2, 4))),
                                  Tensor(rng.normal(size=(5, 4))))
        assert gated is None
        assert bundle.kind == CROSS_KIND

    def test_feature_path_ignores_gate_softmax(self):
        attn, rng = make_cross(seed=11)
        q, mem = rng.normal(size=(3, 4)), rng.normal(size=(5, 4))
        out_plain, _, _ = attn(Tensor(q), Tensor(mem))
        out_gated, _, _ = attn(Tensor(q), Tensor(mem), gate_softmax=True)
        np.testing.assert_allclose(out_plain.data, out_gated.data)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_self_attention_is_cross_attention_to_itself(self, dtype):
        # Both layers run one core: given the same four weight sets, cross
        # attention from a token set to itself is bit for bit self-attention.
        cfg = MhaConfig(2, 6)
        attn = MultiheadSelfAttention(cfg, np.random.default_rng(12))
        cross = MultiheadCrossAttention(cfg, np.random.default_rng(13))
        attn.cast(dtype)
        cross.cast(dtype)
        pairs = list(zip(attn.named_parameters(), cross.named_parameters()))
        assert [a for (a, _), _ in pairs] == [b for _, (b, _) in pairs]
        assert [a for (a, _), _ in pairs][::2] == ["wq.w", "wk.w", "wv.w", "wo.w"]
        for (_, p), (_, q) in pairs:
            q.data = p.data.copy()
        x = Tensor(np.random.default_rng(14).normal(size=(3, 5, 6)), dtype=dtype)
        out_s, b_s = attn(x)
        out_c, b_c, _ = cross(x, x)
        assert out_s.data.dtype == dtype and b_s.stacked.shape == (3, 2, 5, 5)
        np.testing.assert_array_equal(out_s.data, out_c.data)
        np.testing.assert_array_equal(b_s.stacked.data, b_c.stacked.data)

    def test_width_mismatch_rejected(self):
        attn, _ = make_cross()
        with pytest.raises(ShapeError):
            attn(Tensor(np.zeros((2, 4))), Tensor(np.zeros((5, 6))))

    def test_gradient_through_gated_maps(self):
        attn, rng = make_cross(heads=2, dim=4, seed=12)
        mem0 = rng.normal(size=(5, 4))
        w = rng.normal(size=(3, 5))

        def build(t):
            _, _, gated = attn(Tensor(q0), t, gate_softmax=True)
            return tsum(mul(gated.maps[0], Tensor(w)))

        for _ in range(5):
            q0 = rng.normal(size=(3, 4))
            x = Tensor(mem0.copy(), requires_grad=True)
            build(x).backward()
            fd = oracles.finite_difference(lambda a: float(build(Tensor(a)).data),
                                           mem0)
            assert oracles.rel_err(x.grad, fd) <= 1e-6


class TestEncoderBlock:
    def test_matches_loop_reference(self):
        rng = np.random.default_rng(13)
        block = EncoderBlock(MhaConfig(2, 4), mlp_dim=6, rng=rng)
        x = rng.normal(size=(4, 4))
        out, bundle = block(Tensor(x))
        ref = oracles.encoder_block(x, helpers.encoder_block_params(block), 2)
        np.testing.assert_allclose(out.data, ref, atol=1e-9)
        assert bundle.kind == SELF_KIND

    def test_zeroed_output_projections_give_identity(self):
        rng = np.random.default_rng(14)
        block = EncoderBlock(MhaConfig(2, 4), mlp_dim=6, rng=rng)
        for layer in (block.attn.wo, block.mlp.fc2):
            layer.w.data = np.zeros_like(layer.w.data)
            layer.b.data = np.zeros_like(layer.b.data)
        x = rng.normal(size=(5, 4))
        out, _ = block(Tensor(x))
        np.testing.assert_allclose(out.data, x)

    def test_gradient_through_block(self):
        rng = np.random.default_rng(15)
        block = EncoderBlock(MhaConfig(2, 4), mlp_dim=4, rng=rng)
        w = rng.normal(size=(3, 4))

        def build(t):
            out, _ = block(t)
            return tsum(mul(out, Tensor(w)))

        x0 = rng.normal(size=(3, 4))
        x = Tensor(x0.copy(), requires_grad=True)
        build(x).backward()
        fd = oracles.finite_difference(lambda a: float(build(Tensor(a)).data), x0)
        assert oracles.rel_err(x.grad, fd) <= 1e-6


class TestDecoderBlock:
    def test_matches_loop_reference(self):
        rng = np.random.default_rng(16)
        block = DecoderBlock(MhaConfig(2, 4), mlp_dim=6, rng=rng)
        q = rng.normal(size=(3, 4))
        mem = rng.normal(size=(8, 4))
        out, b_self, b_cross, b_gated = block(Tensor(q), Tensor(mem))
        ref_q, ref_self, ref_cross, ref_gated = oracles.decoder_block(
            q, mem, helpers.decoder_block_params(block), 2)
        np.testing.assert_allclose(out.data, ref_q, atol=1e-9)
        for got, ref in ((b_self, ref_self), (b_cross, ref_cross),
                         (b_gated, ref_gated)):
            for m, r in zip(got.maps, ref):
                np.testing.assert_allclose(m.data, r, atol=1e-9)

    def test_bundle_kinds(self):
        rng = np.random.default_rng(17)
        block = DecoderBlock(MhaConfig(2, 4), mlp_dim=4, rng=rng)
        _, b_self, b_cross, b_gated = block(Tensor(rng.normal(size=(3, 4))),
                                            Tensor(rng.normal(size=(6, 4))))
        assert (b_self.kind, b_cross.kind, b_gated.kind) == (
            SELF_KIND, CROSS_KIND, CROSS_GATED_KIND)
        assert (b_self.softmax_axis, b_cross.softmax_axis,
                b_gated.softmax_axis) == (1, 1, 0)

    def test_cross_attention_sees_self_attended_queries(self):
        # Zero the cross/mlp residual branches; the cross maps must then be
        # computed from the self-attention-updated query stream, not the raw
        # input queries.
        rng = np.random.default_rng(18)
        block = DecoderBlock(MhaConfig(2, 4), mlp_dim=4, rng=rng)
        q = rng.normal(size=(3, 4))
        mem = rng.normal(size=(6, 4))
        p = helpers.decoder_block_params(block)
        attended, _ = oracles.self_attention(
            oracles.layernorm2d(q, p["norm1"]["gamma"], p["norm1"]["beta"]),
            p["self_attn"], 2)
        q_after_self = q + attended
        _, ref_cross, _ = oracles.cross_attention(
            oracles.layernorm2d(q_after_self, p["norm2"]["gamma"],
                                p["norm2"]["beta"]),
            mem, p["cross_attn"], 2)
        _, _, b_cross, _ = block(Tensor(q), Tensor(mem))
        np.testing.assert_allclose(b_cross.maps[0].data, ref_cross[0], atol=1e-9)

    def test_gradient_to_memory(self):
        rng = np.random.default_rng(19)
        block = DecoderBlock(MhaConfig(2, 4), mlp_dim=4, rng=rng)
        q0 = rng.normal(size=(2, 4))
        w = rng.normal(size=(2, 4))

        def build(t):
            out, _, _, _ = block(Tensor(q0), t)
            return tsum(mul(out, Tensor(w)))

        m0 = rng.normal(size=(5, 4))
        m = Tensor(m0.copy(), requires_grad=True)
        build(m).backward()
        fd = oracles.finite_difference(lambda a: float(build(Tensor(a)).data), m0)
        assert oracles.rel_err(m.grad, fd) <= 1e-6


class TestBundle:
    def test_heads_property(self):
        b = AttentionBundle(maps=[Tensor(np.zeros((2, 2)))] * 3,
                            softmax_axis=1, kind=SELF_KIND)
        assert b.heads == 3
        assert b.grid is None
