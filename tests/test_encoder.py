"""Backbone stages and top-down fusion against loop references."""

import numpy as np
import pytest

import helpers
import oracles
from tsgseg.attention import SELF_KIND, AttentionBundle
from tsgseg.config import ConfigError
from tsgseg.encoder import (
    Backbone,
    FeatureMap,
    PatchEmbed,
    PatchMerge,
    TsgeFusion,
    upsample_attention,
)
from tsgseg.tensor import ShapeError, Tensor, mul, tsum

GRIDS = [(4, 4), (2, 2), (1, 1)]
DIMS = [4, 6, 8]
HEADS = 2


def three_stage_config(**overrides):
    """16x16 images, stage widths DIMS with HEADS heads each."""
    return helpers.tiny_model_config(**overrides)


def synthetic_pyramid(rng):
    """Random features plus row-stochastic self-attention bundles per stage."""
    features, bundles = [], []
    for s, (g, d) in enumerate(zip(GRIDS, DIMS)):
        n = g[0] * g[1]
        features.append(FeatureMap(Tensor(rng.normal(size=(n, d))), g[0], g[1], s + 1))
        maps = [Tensor(oracles.softmax2d(rng.normal(size=(n, n)), axis=1))
                for _ in range(HEADS)]
        bundles.append(AttentionBundle(maps=maps, softmax_axis=1, kind=SELF_KIND, grid=g))
    return features, bundles


def tsg_fusion(rng, **overrides) -> TsgeFusion:
    """Fusion over all three stages, or over the kept ones of a single-stage config."""
    cfg = three_stage_config(d_f=8, d_a=6, tsg_hidden=5, **overrides)
    return TsgeFusion(cfg, rng)


def fusion_params(fusion: TsgeFusion) -> dict:
    return {
        "top": helpers.lin_params(fusion.top_proj),
        "transforms": [helpers.lin_params(st.transform) for st in fusion.steps],
        "heads": [helpers.head_params(st.head) for st in fusion.steps],
    }


class TestPatchEmbed:
    def test_patch_extraction_order(self):
        # An averaging projection, with the positional table zeroed, reduces
        # each token to its patch mean, which an explicit per-pixel loop can
        # verify.
        rng = np.random.default_rng(0)
        embed = PatchEmbed(4, 1, (3, 2), rng)
        embed.proj.w.data = np.full((48, 1), 1.0 / 48)
        embed.proj.b.data = np.zeros(1)
        embed.pos.data = np.zeros_like(embed.pos.data)
        image = rng.uniform(size=(12, 8, 3))
        fm = embed(Tensor(image))
        assert (fm.h, fm.w, fm.stage) == (3, 2, 1)
        np.testing.assert_allclose(fm.data.data[:, 0],
                                   oracles.patch_means(image, 4), atol=1e-12)

    def test_positional_table_added(self):
        rng = np.random.default_rng(1)
        embed = PatchEmbed(4, 5, (2, 2), rng)
        image = rng.uniform(size=(8, 8, 3))
        with_pos = embed(Tensor(image)).data.data
        pos = embed.pos.data.copy()
        embed.pos.data = np.zeros_like(pos)
        without = embed(Tensor(image)).data.data
        np.testing.assert_allclose(with_pos, without + pos, atol=1e-12)

    def test_size_mismatch_rejected(self):
        rng = np.random.default_rng(2)
        embed = PatchEmbed(4, 5, (2, 2), rng)
        with pytest.raises(ShapeError):
            embed(Tensor(np.zeros((12, 8, 3))))
        with pytest.raises(ShapeError):
            embed(Tensor(np.zeros((8, 8, 1))))


class TestPatchMerge:
    def test_matches_loop_reference(self):
        rng = np.random.default_rng(3)
        merge = PatchMerge(3, 5, rng)
        field = rng.normal(size=(4, 6, 3))
        fm = FeatureMap(Tensor(field.reshape(24, 3)), 4, 6, stage=1)
        out = merge(fm)
        assert (out.h, out.w, out.stage) == (2, 3, 2)
        ref = oracles.merge_2x2(field, merge.proj.w.data, merge.proj.b.data)
        np.testing.assert_allclose(out.data.data, ref, atol=1e-12)

    def test_odd_grid_rejected(self):
        rng = np.random.default_rng(4)
        merge = PatchMerge(2, 2, rng)
        with pytest.raises(ShapeError, match="odd"):
            merge(FeatureMap(Tensor(np.zeros((15, 2))), 3, 5, stage=1))


class TestBackbone:
    def test_stage_shapes(self):
        rng = np.random.default_rng(5)
        bb = Backbone(three_stage_config(), rng)
        feats, bundles = bb(Tensor(rng.uniform(size=(16, 16, 3))))
        assert [(f.h, f.w) for f in feats] == GRIDS
        assert [f.data.shape[1] for f in feats] == DIMS
        assert [f.stage for f in feats] == [1, 2, 3]
        for b, g, f in zip(bundles, GRIDS, feats):
            assert b.kind == SELF_KIND and b.grid == g
            assert all(m.shape == (g[0] * g[1],) * 2 for m in b.maps)

    def test_bundle_comes_from_last_block(self):
        cfg = three_stage_config(stage_blocks=(2, 1, 1))
        rng = np.random.default_rng(6)
        bb = Backbone(cfg, rng)
        image = Tensor(rng.uniform(size=(16, 16, 3)))
        _, bundles = bb(image)
        # Stage 1 by hand: its second block's map is the one kept, not the first's
        first, second = bb.stages[0]
        tokens, b1 = first(bb.embed(image).data)
        _, b2 = second(tokens)
        assert not np.allclose(bundles[0].stacked.data, b1.stacked.data)
        np.testing.assert_array_equal(bundles[0].stacked.data, b2.stacked.data)

    def test_indivisible_image_rejected(self):
        # 16 = patch size 4 halved twice; the config refuses other sizes
        with pytest.raises(ConfigError, match="height 24 must be a positive multiple of 16"):
            three_stage_config(height=24, width=24)

    def test_deterministic_given_seed(self):
        img = np.random.default_rng(8).uniform(size=(16, 16, 3))
        outs = []
        for _ in range(2):
            bb = Backbone(three_stage_config(), np.random.default_rng(42))
            feats, _ = bb(Tensor(img))
            outs.append([f.data.data.copy() for f in feats])
        for a, b in zip(*outs):
            np.testing.assert_array_equal(a, b)

    def test_feature_map_row_validation(self):
        with pytest.raises(ShapeError):
            FeatureMap(Tensor(np.zeros((5, 2))), 2, 2, stage=1)


class TestUpsampleAttention:
    def test_equal_grid_returns_same_object(self):
        rng = np.random.default_rng(9)
        _, bundles = synthetic_pyramid(rng)
        assert upsample_attention(bundles[0], (4, 4)) is bundles[0]

    def test_rows_upsampled_columns_kept(self):
        rng = np.random.default_rng(10)
        _, bundles = synthetic_pyramid(rng)
        up = upsample_attention(bundles[1], (4, 4))
        assert up is not bundles[1]
        assert up.grid == (4, 4)
        for m, orig in zip(up.maps, bundles[1].maps):
            assert m.shape == (16, 4)
            np.testing.assert_allclose(
                m.data, oracles.upsample_rows(orig.data, (2, 2), (4, 4)),
                atol=1e-9)
            np.testing.assert_allclose(m.data.sum(axis=1), np.ones(16), atol=1e-9)

    def test_missing_grid_rejected(self):
        b = AttentionBundle(maps=[Tensor(np.zeros((4, 4)))], softmax_axis=1,
                            kind=SELF_KIND)
        with pytest.raises(ShapeError, match="grid"):
            upsample_attention(b, (4, 4))


class TestTsgeFusion:
    def test_gated_recursion_matches_reference(self):
        rng = np.random.default_rng(11)
        fusion = tsg_fusion(rng)
        helpers.randomize_gate_mlps(fusion, rng)
        features, bundles = synthetic_pyramid(rng)
        refined, gates = fusion(features, bundles)
        ref = oracles.tsge(
            [f.data.data for f in features], GRIDS,
            [[m.data for m in b.maps] for b in bundles], fusion_params(fusion))
        assert [(f.h, f.w) for f in refined] == GRIDS
        assert all(f.data.shape[1] == 8 for f in refined)
        for got, want in zip(refined, ref):
            np.testing.assert_allclose(got.data.data, want, atol=1e-9)
        # one gate matrix per top-down merge, coarsest step first
        assert [g.gates.shape for g in gates] == [(4, 2), (16, 2)]
        for g in gates:
            np.testing.assert_allclose(g.gates.data.sum(axis=1),
                                       np.ones(g.gates.shape[0]), atol=1e-9)

    def test_fresh_heads_give_mean_fusion(self):
        rng = np.random.default_rng(12)
        fusion = tsg_fusion(rng)
        features, bundles = synthetic_pyramid(rng)
        refined, gates = fusion(features, bundles)
        for g in gates:
            np.testing.assert_allclose(g.gates.data, 0.5)
        p = fusion_params(fusion)
        expect = {2: oracles.linear2d(features[2].data.data, p["top"]["w"], p["top"]["b"])}
        for s in (1, 0):
            up = oracles.upsample_rows(expect[s + 1], GRIDS[s + 1], GRIDS[s])
            lat = oracles.linear2d(features[s].data.data,
                                   p["transforms"][s]["w"], p["transforms"][s]["b"])
            expect[s] = 0.5 * up + 0.5 * lat
        for s in range(3):
            np.testing.assert_allclose(refined[s].data.data, expect[s], atol=1e-9)

    def test_all_ones_forced_gates_match_unweighted_variant(self):
        rng = np.random.default_rng(13)
        gated = tsg_fusion(rng)
        helpers.randomize_gate_mlps(gated, rng)
        plain = tsg_fusion(np.random.default_rng(99), encoder_fusion="fpn")
        plain.top_proj.w.data = gated.top_proj.w.data.copy()
        plain.top_proj.b.data = gated.top_proj.b.data.copy()
        for src, dst in zip(gated.steps, plain.steps):
            dst.transform.w.data = src.transform.w.data.copy()
            dst.transform.b.data = src.transform.b.data.copy()
        features, bundles = synthetic_pyramid(rng)
        forced, _ = gated(features, bundles, forced_gates=1.0)
        unweighted, gates = plain(features, bundles)
        assert gates == []
        for a, b in zip(forced, unweighted):
            np.testing.assert_allclose(a.data.data, b.data.data, atol=1e-12)

    def test_projection_only_variant(self):
        rng = np.random.default_rng(15)
        fusion = tsg_fusion(rng, encoder_fusion="none")
        features, bundles = synthetic_pyramid(rng)
        refined, gates = fusion(features, bundles)
        assert gates == []
        for s, fm in enumerate(refined):
            proj = fusion.top_proj if s == 2 else fusion.steps[s].transform
            ref = oracles.linear2d(features[s].data.data, proj.w.data, proj.b.data)
            np.testing.assert_allclose(fm.data.data, ref, atol=1e-12)

    def test_single_stage_variant(self):
        rng = np.random.default_rng(16)
        fusion = tsg_fusion(rng, encoder_fusion="single", single_stage=2)
        features, bundles = synthetic_pyramid(rng)
        refined, gates = fusion(features[:2], bundles[:2])
        assert gates == [] and len(refined) == 1
        assert refined[0].grid == (2, 2)
        ref = oracles.linear2d(features[1].data.data, fusion.proj.w.data,
                               fusion.proj.b.data)
        np.testing.assert_allclose(refined[0].data.data, ref, atol=1e-12)
        names = [n for n, _ in fusion.named_parameters()]
        assert sorted(names) == ["proj.b", "proj.w"]

    def test_shared_head_matches_slice_reference(self):
        rng = np.random.default_rng(18)
        fusion = tsg_fusion(rng, shared_tsg=True)
        helpers.randomize_gate_mlps(fusion, rng)
        assert fusion.steps[0].head is fusion.steps[1].head
        features, bundles = synthetic_pyramid(rng)
        refined, _ = fusion(features, bundles)
        shared = helpers.head_params(fusion.shared_head)
        params = {
            "top": helpers.lin_params(fusion.top_proj),
            "transforms": [helpers.lin_params(st.transform) for st in fusion.steps],
            "heads": [
                {"integrators": shared["integrators"][s:],
                 "norm": shared["norm"], "mlp": shared["mlp"]}
                for s in range(2)
            ],
        }
        ref = oracles.tsge(
            [f.data.data for f in features], GRIDS,
            [[m.data for m in b.maps] for b in bundles], params)
        for got, want in zip(refined, ref):
            np.testing.assert_allclose(got.data.data, want, atol=1e-9)

    @pytest.mark.parametrize("overrides, counts", [
        ({}, [1, 2, 2]),
        ({"shared_tsg": True}, [1, 1, 1]),
        ({"encoder_fusion": "fpn"}, [0, 0, 0]),
        ({"encoder_fusion": "none"}, [0, 0, 0]),
        ({"encoder_fusion": "single", "single_stage": 2}, [0, 0]),
    ])
    def test_readers_of_each_stage_map(self, overrides, counts):
        fusion = tsg_fusion(np.random.default_rng(21), **overrides)
        assert [len(r) for r in fusion.readers()] == counts
        assert all(r == [] for r in fusion.readers(forced_gates=1.0))

    def test_readers_follow_the_trailing_sources_rule(self):
        # step s reads stages s and up with its head's last integrators
        fusion = tsg_fusion(np.random.default_rng(22))
        first, second = (step.head.integrators for step in fusion.steps)
        assert fusion.readers() == [[first[0]], [first[1], second[0]],
                                    [first[2], second[1]]]

    def test_shared_head_reports_parameters_once(self):
        rng = np.random.default_rng(19)
        fusion = tsg_fusion(rng, shared_tsg=True)
        names = [n for n, _ in fusion.named_parameters()]
        assert len(names) == len(set(names))
        solo = tsg_fusion(np.random.default_rng(19))
        assert len(names) < len(solo.named_parameters())

    def test_gradient_reaches_input_features(self):
        rng = np.random.default_rng(20)
        fusion = tsg_fusion(rng)
        helpers.randomize_gate_mlps(fusion, rng)
        features, bundles = synthetic_pyramid(rng)
        w = rng.normal(size=(16, 8))
        x0 = features[1].data.data.copy()

        def build(t):
            feats = list(features)
            feats[1] = FeatureMap(t, 2, 2, stage=2)
            refined, _ = fusion(feats, bundles)
            return tsum(mul(refined[0].data, Tensor(w)))

        x = Tensor(x0.copy(), requires_grad=True)
        build(x).backward()
        fd = oracles.finite_difference(lambda a: float(build(Tensor(a)).data), x0)
        assert oracles.rel_err(x.grad, fd) <= 1e-6
