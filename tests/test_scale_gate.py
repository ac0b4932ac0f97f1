"""Gate head behavior: evidence integration, gate normalization, the
uniform-gates-at-init property, and gated summation."""

import numpy as np
import pytest

import helpers
import oracles
from tsgseg.attention import (
    CROSS_GATED_KIND,
    CROSS_KIND,
    SELF_KIND,
    AttentionBundle,
    MhaConfig,
    MultiheadCrossAttention,
    MultiheadSelfAttention,
)
from tsgseg.scale_gate import ScaleGates, TsgHead, gated_sum
from tsgseg.tensor import ShapeError, Tensor, mul, tsum


def random_self_bundle(rng, rows: int, heads: int) -> AttentionBundle:
    maps = []
    for _ in range(heads):
        logits = rng.normal(size=(rows, rows))
        maps.append(Tensor(oracles.softmax2d(logits, axis=1)))
    return AttentionBundle(maps=maps, softmax_axis=1, kind=SELF_KIND)


def gridded_self_bundle(rng, grid, heads: int, batch: int, dtype) -> AttentionBundle:
    """A (batch, heads, R, R) row-stochastic stack laid out on ``grid``."""
    rows = grid[0] * grid[1]
    maps = oracles.softmax2d(rng.normal(size=(batch * heads * rows, rows)), axis=1)
    return AttentionBundle(Tensor(maps.reshape(batch, heads, rows, rows), dtype=dtype),
                           softmax_axis=1, kind=SELF_KIND, grid=grid)


def random_gated_bundle(rng, classes: int, rows: int, heads: int):
    maps = [Tensor(oracles.softmax2d(rng.normal(size=(classes, rows)), axis=0))
            for _ in range(heads)]
    return AttentionBundle(maps=maps, softmax_axis=0, kind=CROSS_GATED_KIND)


class TestIntegrateSelf:
    def test_matches_loop_reference(self):
        rng = np.random.default_rng(0)
        head = TsgHead([2 * 4, 2 * 4], d_a=5, hidden=6, num_scales=2, rng=rng)
        b1 = random_self_bundle(rng, rows=4, heads=2)
        b2 = random_self_bundle(rng, rows=4, heads=2)
        got = head.integrate_self([b1, b2]).data
        ref = oracles.integrate_self_maps(
            [[m.data for m in b1.maps], [m.data for m in b2.maps]],
            [helpers.lin_params(l) for l in head.integrators])
        np.testing.assert_allclose(got, ref, atol=1e-12)

    def test_start_offset_uses_later_integrators(self):
        rng = np.random.default_rng(1)
        head = TsgHead([8, 8, 8], d_a=4, hidden=4, num_scales=3, rng=rng)
        b = random_self_bundle(rng, rows=4, heads=2)
        got = head.integrate_self([b]).data
        ref = oracles.integrate_self_maps(
            [[m.data for m in b.maps]], [helpers.lin_params(head.integrators[2])])
        np.testing.assert_allclose(got, ref, atol=1e-12)

    def test_too_many_bundles_rejected(self):
        rng = np.random.default_rng(2)
        head = TsgHead([8, 8], d_a=4, hidden=4, num_scales=2, rng=rng)
        b = random_self_bundle(rng, rows=4, heads=2)
        with pytest.raises(ShapeError, match="2 sources, got 3"):
            head.integrate_self([b, b, b])

    def test_empty_bundle_list_rejected(self):
        head = TsgHead([8, 8], d_a=4, hidden=4, num_scales=2, rng=np.random.default_rng(2))
        with pytest.raises(ShapeError, match="bundle list is empty"):
            head.integrate_self([])

    def test_self_attention_bundle_carries_its_readers_projections(self):
        # a layer's bundle holds the projection of each integrator it was
        # told reads its map; integrate_self uses it and refuses the others
        rng = np.random.default_rng(4)
        head = TsgHead([2 * 5, 2 * 5], d_a=3, hidden=4, num_scales=2, rng=rng)
        attn = MultiheadSelfAttention(MhaConfig(2, 4), rng)
        x = Tensor(rng.normal(size=(3, 5, 4)))
        _, bundle = attn(x, [head.integrators[1]])
        assert list(bundle.projections) == [head.integrators[1]]
        explicit = AttentionBundle(bundle.stacked, softmax_axis=1, kind=SELF_KIND)
        np.testing.assert_allclose(head.integrate_self([bundle]).data,
                                   head.integrate_self([explicit]).data, rtol=1e-12)
        _, unread = attn(x)
        with pytest.raises(ShapeError, match="no projection"):
            head.integrate_self([unread])

    def test_row_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        head = TsgHead([8, 8], d_a=4, hidden=4, num_scales=2, rng=rng)
        b1 = random_self_bundle(rng, rows=4, heads=2)
        b2 = random_self_bundle(rng, rows=9, heads=2)
        with pytest.raises(ShapeError, match="row-count"):
            head.integrate_self([b1, b2])

    def test_row_mismatch_without_second_grid_rejected(self):
        # Only the first bundle has a grid, so the second's rows cannot be
        # placed; the check runs before b2 reaches its too-narrow integrator.
        rng = np.random.default_rng(3)
        head = TsgHead([8, 8], d_a=4, hidden=4, num_scales=2, rng=rng)
        b1 = random_self_bundle(rng, rows=4, heads=2)
        b1.grid = (2, 2)
        b2 = random_self_bundle(rng, rows=9, heads=2)
        with pytest.raises(ShapeError, match="row-count"):
            head.integrate_self([b1, b2])

    @pytest.mark.parametrize("dtype,tol", [(np.float64, dict(rtol=1e-12, atol=0)),
                                           (np.float32, dict(rtol=1e-5, atol=0))])
    def test_projecting_first_matches_upsampling_first(self, dtype, tol):
        # The head projects each bundle at its own grid and upsamples the
        # d_A-wide result; the reference upsamples every head map to the
        # first grid and projects after, as the paper orders it. The bias
        # is large so that interpolation weights not summing to 1 would show.
        rng = np.random.default_rng(17)
        grids = [(4, 6), (2, 3), (2, 2)]
        heads, batch, start = 2, 2, 1
        head = TsgHead([7] + [heads * g[0] * g[1] for g in grids], d_a=5, hidden=4,
                       num_scales=2, rng=rng)
        head.cast(dtype)
        for lin in head.integrators:
            lin.b.data = (100.0 + rng.normal(size=lin.b.shape)).astype(dtype)
        bundles = [gridded_self_bundle(rng, g, heads, batch, dtype) for g in grids]
        got = head.integrate_self(bundles)
        assert got.shape == (batch, 24, 5) and got.dtype == dtype
        params = [helpers.lin_params(l) for l in head.integrators[start:]]
        for i in range(batch):
            ref = oracles.integrate_self_maps(
                [[oracles.upsample_rows(b.stacked.data[i, h], g, grids[0])
                  for h in range(heads)] for b, g in zip(bundles, grids)], params)
            np.testing.assert_allclose(got.data[i], ref, **tol)

    def test_coarser_first_bundle_rejected(self):
        rng = np.random.default_rng(18)
        head = TsgHead([2 * 4, 2 * 16], d_a=4, hidden=4, num_scales=2, rng=rng)
        coarse = gridded_self_bundle(rng, (2, 2), 2, 1, np.float64)
        fine = gridded_self_bundle(rng, (4, 4), 2, 1, np.float64)
        with pytest.raises(ShapeError, match="smaller"):
            head.integrate_self([coarse, fine])


class TestIntegrateCross:
    def test_matches_loop_reference(self):
        rng = np.random.default_rng(5)
        head = TsgHead([2 * 3], d_a=5, hidden=4, num_scales=3, rng=rng)
        b = random_gated_bundle(rng, classes=3, rows=6, heads=2)
        got = head.integrate_cross(b).data
        ref = oracles.integrate_cross_maps(
            [m.data for m in b.maps], helpers.lin_params(head.integrators[0]))
        assert got.shape == (6, 5)
        np.testing.assert_allclose(got, ref, atol=1e-12)

    def test_patch_normalized_bundle_rejected(self):
        rng = np.random.default_rng(6)
        head = TsgHead([6], d_a=4, hidden=4, num_scales=2, rng=rng)
        maps = [Tensor(oracles.softmax2d(rng.normal(size=(3, 6)), axis=1))]
        wrong = AttentionBundle(maps=maps, softmax_axis=1, kind=CROSS_KIND)
        with pytest.raises(ShapeError, match="class-axis"):
            head.integrate_cross(wrong)


class TestGate:
    def test_rows_are_distributions(self):
        rng = np.random.default_rng(7)
        head = TsgHead([8], d_a=6, hidden=5, num_scales=3, rng=rng)
        helpers.randomize_gate_mlps(head, rng)
        gates = head.gate(Tensor(rng.normal(size=(10, 6))))
        assert isinstance(gates, ScaleGates)
        assert gates.gates.shape == (10, 3)
        np.testing.assert_allclose(gates.gates.data.sum(axis=1), np.ones(10),
                                   atol=1e-9)
        assert np.all(gates.gates.data > 0)

    def test_fresh_head_emits_uniform_gates(self):
        rng = np.random.default_rng(8)
        for s in (2, 3, 4):
            head = TsgHead([8], d_a=6, hidden=5, num_scales=s, rng=rng)
            gates = head.gate(Tensor(rng.normal(size=(7, 6)))).gates.data
            np.testing.assert_allclose(gates, np.full((7, s), 1.0 / s))

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(9)
        head = TsgHead([8], d_a=6, hidden=5, num_scales=3, rng=rng)
        helpers.randomize_gate_mlps(head, rng)
        a = rng.normal(size=(4, 6))
        got = head.gate(Tensor(a)).gates.data
        ref = oracles.gate(a, helpers.head_params(head))
        np.testing.assert_allclose(got, ref, atol=1e-12)

    def test_gradient_reaches_evidence_maps(self):
        rng = np.random.default_rng(11)
        head = TsgHead([2 * 4], d_a=5, hidden=4, num_scales=2, rng=rng)
        helpers.randomize_gate_mlps(head, rng)
        w = rng.normal(size=(4, 2))
        m0 = oracles.softmax2d(rng.normal(size=(4, 4)), axis=1)
        m1 = oracles.softmax2d(rng.normal(size=(4, 4)), axis=1)

        def build(t):
            bundle = AttentionBundle(maps=[t, Tensor(m1)], softmax_axis=1,
                                     kind=SELF_KIND)
            gates = head.gate(head.integrate_self([bundle]))
            return tsum(mul(gates.gates, Tensor(w)))

        x = Tensor(m0.copy(), requires_grad=True)
        build(x).backward()
        fd = oracles.finite_difference(lambda a: float(build(Tensor(a)).data), m0)
        assert oracles.rel_err(x.grad, fd) <= 1e-6
        assert np.any(x.grad != 0)


class TestGatedSum:
    def test_matches_loop_reference(self):
        rng = np.random.default_rng(12)
        feats = [rng.normal(size=(6, 4)) for _ in range(3)]
        g = oracles.softmax2d(rng.normal(size=(6, 3)), axis=1)
        got = gated_sum([Tensor(f) for f in feats], Tensor(g)).data
        np.testing.assert_allclose(got, oracles.gated_sum(feats, g), atol=1e-12)

    def test_one_hot_gates_select_single_map(self):
        rng = np.random.default_rng(13)
        feats = [rng.normal(size=(4, 3)) for _ in range(2)]
        g = np.zeros((4, 2))
        g[:, 1] = 1.0
        out = gated_sum([Tensor(f) for f in feats], Tensor(g)).data
        np.testing.assert_allclose(out, feats[1])

    def test_all_ones_gates_give_plain_sum(self):
        rng = np.random.default_rng(14)
        feats = [rng.normal(size=(5, 3)) for _ in range(3)]
        out = gated_sum([Tensor(f) for f in feats], Tensor(np.ones((5, 3)))).data
        np.testing.assert_allclose(out, feats[0] + feats[1] + feats[2])

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            gated_sum([Tensor(np.zeros((4, 2)))], Tensor(np.zeros((4, 2))))
        with pytest.raises(ShapeError):
            gated_sum([Tensor(np.zeros((3, 2))), Tensor(np.zeros((3, 2)))],
                      Tensor(np.zeros((4, 2))))

    def test_gradients(self):
        rng = np.random.default_rng(15)
        f1 = rng.normal(size=(4, 3))
        g0 = oracles.softmax2d(rng.normal(size=(4, 2)), axis=1)
        w = rng.normal(size=(4, 3))

        def from_feature(t):
            return tsum(mul(gated_sum([t, Tensor(f1)], Tensor(g0)), Tensor(w)))

        def from_gates(t):
            return tsum(mul(gated_sum([Tensor(f0), Tensor(f1)], t), Tensor(w)))

        for _ in range(5):
            f0 = rng.normal(size=(4, 3))
            for build, x0 in ((from_feature, f0), (from_gates, g0)):
                x = Tensor(x0.copy(), requires_grad=True)
                build(x).backward()
                fd = oracles.finite_difference(
                    lambda a: float(build(Tensor(a)).data), x0)
                assert oracles.rel_err(x.grad, fd) <= 1e-6


class TestSharedHeadAcrossSteps:
    def test_same_parameters_serve_two_offsets(self):
        # A head built for three sources scores a two-source step with its
        # last two integrators; the result must equal a dedicated head with
        # identical trailing integrators.
        rng = np.random.default_rng(16)
        shared = TsgHead([10, 10, 10], d_a=4, hidden=4, num_scales=2, rng=rng)
        helpers.randomize_gate_mlps(shared, rng)
        solo = TsgHead([10, 10], d_a=4, hidden=4, num_scales=2,
                       rng=np.random.default_rng(99))
        for i in (0, 1):
            solo.integrators[i].w.data = shared.integrators[1 + i].w.data.copy()
            solo.integrators[i].b.data = shared.integrators[1 + i].b.data.copy()
        for src, dst in ((shared.norm, solo.norm),):
            dst.gamma.data = src.gamma.data.copy()
            dst.beta.data = src.beta.data.copy()
        for name in ("fc1", "fc2"):
            getattr(solo.mlp, name).w.data = getattr(shared.mlp, name).w.data.copy()
            getattr(solo.mlp, name).b.data = getattr(shared.mlp, name).b.data.copy()
        b1 = random_self_bundle(rng, rows=5, heads=2)
        b2 = random_self_bundle(rng, rows=5, heads=2)
        a_shared = shared.integrate_self([b1, b2])
        a_solo = solo.integrate_self([b1, b2])
        np.testing.assert_allclose(a_shared.data, a_solo.data, atol=1e-12)
        np.testing.assert_allclose(shared.gate(a_shared).gates.data,
                                   solo.gate(a_solo).gates.data, atol=1e-12)
