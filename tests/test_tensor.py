"""Core tensor ops: forward values against reference math, gradients
against central finite differences."""

import math

import numpy as np
import pytest

import oracles
from tsgseg.tensor import (
    ShapeError,
    Tensor,
    _erf_float32,
    _interp_axis_weights,
    _weight_pair,
    add,
    concat,
    cross_entropy,
    gelu,
    layernorm,
    linear,
    matmul,
    mul,
    narrow,
    no_grad,
    permute,
    reshape,
    scale,
    softmax,
    take,
    transpose,
    tsum,
    upsample_bilinear,
)

GRAD_TOL = 1e-6


def grad_of(build, x0: np.ndarray) -> np.ndarray:
    """Analytic gradient of scalar build(Tensor) at x0."""
    x = Tensor(x0.copy(), requires_grad=True)
    build(x).backward()
    return x.grad.copy()


def fd_of(build, x0: np.ndarray) -> np.ndarray:
    return oracles.finite_difference(lambda a: float(build(Tensor(a)).data), x0)


def check_grad(build, x0: np.ndarray, tol: float = GRAD_TOL):
    g = grad_of(build, x0)
    fd = oracles.finite_difference(lambda a: float(build(Tensor(a)).data), x0)
    assert oracles.rel_err(g, fd) <= tol


class TestMatmul:
    def test_hand_example(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        np.testing.assert_allclose(out.data, [[3.0], [7.0]])

    def test_identity(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 4))
        out = matmul(Tensor(a), Tensor(np.eye(4)))
        np.testing.assert_allclose(out.data, a)

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_rank_error(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))

    def test_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a0 = rng.normal(size=(5, 4))
            b0 = rng.normal(size=(4, 3))
            check_grad(lambda t: tsum(matmul(t, Tensor(b0))), a0)
            check_grad(lambda t: tsum(matmul(Tensor(a0), t)), b0)

    def test_associativity(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a, b, c = (Tensor(rng.normal(size=s))
                       for s in ((3, 4), (4, 5), (5, 2)))
            left = matmul(matmul(a, b), c).data
            right = matmul(a, matmul(b, c)).data
            assert oracles.rel_err(left, right, floor=1e-9) <= 1e-9


class TestElementwise:
    def test_add_mul_scale_values(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        np.testing.assert_allclose(add(Tensor(a), Tensor(b)).data, a + b)
        np.testing.assert_allclose(mul(Tensor(a), Tensor(b)).data, a * b)
        np.testing.assert_allclose(scale(Tensor(a), -2.5).data, -2.5 * a)

    def test_broadcast_gradients(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x0 = rng.normal(size=(4, 3))
            row = rng.normal(size=3)
            check_grad(lambda t: tsum(add(t, Tensor(row))), x0)
            check_grad(lambda t: tsum(add(Tensor(x0), t)), row)
            check_grad(lambda t: tsum(mul(Tensor(x0), t)), row)

    def test_broadcast_shape_error(self):
        with pytest.raises(ShapeError):
            add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))

    def test_transpose_roundtrip_and_grad(self):
        rng = np.random.default_rng(5)
        x0 = rng.normal(size=(3, 5))
        np.testing.assert_allclose(transpose(Tensor(x0)).data, x0.T)
        check_grad(lambda t: tsum(mul(transpose(t), transpose(t))), x0)


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax(Tensor([0.0, 0.0]), axis=0).data,
                                   [0.5, 0.5])

    def test_large_logits_stable(self):
        out = softmax(Tensor([1000.0, 1000.0, 1000.0]), axis=0).data
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [1 / 3] * 3)

    def test_rows_sum_to_one_and_positive(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            x = rng.normal(scale=5.0, size=(3, 4))
            out = softmax(Tensor(x), axis=1).data
            np.testing.assert_allclose(out.sum(axis=1), np.ones(3), atol=1e-9)
            assert np.all(out > 0)
            np.testing.assert_allclose(out, oracles.softmax2d(x, 1), atol=1e-12)

    def test_axis0_matches_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(4, 3))
        out = softmax(Tensor(x), axis=0).data
        np.testing.assert_allclose(out, oracles.softmax2d(x, 0), atol=1e-12)
        np.testing.assert_allclose(out.sum(axis=0), np.ones(3), atol=1e-9)

    def test_shift_invariance(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, 4))
        a = softmax(Tensor(x), axis=1).data
        b = softmax(Tensor(x + 13.7), axis=1).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_invalid_axis(self):
        with pytest.raises(ShapeError):
            softmax(Tensor(np.zeros((2, 2))), axis=2)

    def test_gradient(self):
        rng = np.random.default_rng(9)
        w = rng.normal(size=(3, 4))
        for _ in range(20):
            x0 = rng.normal(size=(3, 4))
            check_grad(lambda t: tsum(mul(softmax(t, axis=1), Tensor(w))), x0)
            check_grad(lambda t: tsum(mul(softmax(t, axis=0), Tensor(w))), x0)


class TestLayerNorm:
    def test_constant_row_absorbed_by_eps(self):
        out = layernorm(Tensor([[5.0, 5.0, 5.0]]), Tensor(np.ones(3)),
                        Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, np.zeros((1, 3)), atol=1e-12)

    def test_two_point_row(self):
        out = layernorm(Tensor([[1.0, -1.0]]), Tensor(np.ones(2)),
                        Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-4)

    def test_row_statistics(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(4, 8))
        out = layernorm(Tensor(x), Tensor(np.ones(8)), Tensor(np.zeros(8))).data
        assert np.max(np.abs(out.mean(axis=1))) <= 1e-7
        np.testing.assert_allclose(out.var(axis=1), np.ones(4), atol=1e-4)

    def test_matches_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(3, 5))
        gamma, beta = rng.normal(size=5), rng.normal(size=5)
        out = layernorm(Tensor(x), Tensor(gamma), Tensor(beta)).data
        np.testing.assert_allclose(out, oracles.layernorm2d(x, gamma, beta),
                                   atol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(12)
        w = rng.normal(size=(4, 6))
        gamma0, beta0 = rng.normal(size=6), rng.normal(size=6)
        for _ in range(10):
            x0 = rng.normal(size=(4, 6))
            check_grad(
                lambda t: tsum(mul(layernorm(t, Tensor(gamma0), Tensor(beta0)),
                                   Tensor(w))), x0)
            check_grad(
                lambda t: tsum(mul(layernorm(Tensor(x0), t, Tensor(beta0)),
                                   Tensor(w))), gamma0)
            check_grad(
                lambda t: tsum(mul(layernorm(Tensor(x0), Tensor(gamma0), t),
                                   Tensor(w))), beta0)


class TestGelu:
    def test_zero(self):
        assert float(gelu(Tensor(np.zeros(1))).data[0]) == 0.0

    def test_asymptote(self):
        assert abs(float(gelu(Tensor([10.0])).data[0]) - 10.0) <= 1e-4

    def test_unit_value(self):
        assert abs(float(gelu(Tensor([1.0])).data[0]) - 0.8413) <= 1e-3

    def test_matches_oracle(self):
        rng = np.random.default_rng(13)
        x = rng.normal(scale=2.0, size=(4, 5))
        np.testing.assert_allclose(gelu(Tensor(x)).data, oracles.gelu2d(x),
                                   atol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            x0 = rng.normal(scale=2.0, size=(3, 3))
            check_grad(lambda t: tsum(gelu(t)), x0)

    def test_float32_erf_within_5e7_of_math_erf(self):
        x = np.linspace(-10.0, 10.0, 400_001, dtype=np.float32)
        out = _erf_float32(x)
        assert out.dtype == np.float32
        exact = np.array([math.erf(v) for v in x.tolist()])
        assert np.max(np.abs(out - exact)) <= 5e-7

    def test_float32_erf_special_values(self):
        x = np.linspace(0.0, 10.0, 10_001, dtype=np.float32)
        np.testing.assert_array_equal(_erf_float32(-x), -_erf_float32(x))
        zeros = _erf_float32(np.array([0.0, -0.0], dtype=np.float32))
        np.testing.assert_array_equal(zeros, 0.0)
        assert list(np.signbit(zeros)) == [False, True]
        edge = np.array([np.inf, -np.inf, 4.0, -4.0, 4.5, -7.0, 1e30], dtype=np.float32)
        np.testing.assert_array_equal(_erf_float32(edge), [1, -1, 1, -1, 1, -1, 1])
        assert np.isnan(_erf_float32(np.array([np.nan], dtype=np.float32)))[0]
        assert _erf_float32(np.array([0.5], dtype=np.float32)).dtype == np.float32

    def test_float32_matches_float64(self):
        rng = np.random.default_rng(15)
        x0 = np.concatenate([rng.normal(scale=2.0, size=(64, 32)).ravel(),
                             np.linspace(-8.0, 8.0, 2001)]).astype(np.float32)
        g = rng.normal(size=x0.shape)
        outs, grads = [], []
        for dtype in (np.float32, np.float64):
            x = Tensor(x0, requires_grad=True, dtype=dtype)
            y = gelu(x)
            tsum(mul(y, Tensor(g, dtype=dtype))).backward()
            assert y.dtype == dtype and x.grad.dtype == dtype
            outs.append(y.data)
            grads.append(x.grad)
        # float32 rounding of |x| <= 8 plus the kernel's 4.2e-7 erf error
        np.testing.assert_allclose(outs[0], outs[1], rtol=2e-6, atol=4e-6)
        np.testing.assert_allclose(grads[0], grads[1], rtol=2e-6,
                                   atol=2e-6 * np.abs(g).max())


class TestLinear:
    def test_identity(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(3, 4))
        out = linear(Tensor(x), Tensor(np.eye(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, x)

    def test_hand_example(self):
        out = linear(Tensor([[1.0, 1.0]]), Tensor([[1.0], [1.0]]), Tensor([1.0]))
        np.testing.assert_allclose(out.data, [[3.0]])

    def test_gradients_all_arguments(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            x0 = rng.normal(size=(3, 4))
            w0 = rng.normal(size=(4, 2))
            b0 = rng.normal(size=2)
            check_grad(lambda t: tsum(linear(t, Tensor(w0), Tensor(b0))), x0)
            check_grad(lambda t: tsum(linear(Tensor(x0), t, Tensor(b0))), w0)
            check_grad(lambda t: tsum(linear(Tensor(x0), Tensor(w0), t)), b0)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))),
                   Tensor(np.zeros(2)))
        with pytest.raises(ShapeError):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))),
                   Tensor(np.zeros(3)))


class TestConcatNarrow:
    def test_singleton(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        np.testing.assert_allclose(concat([a], axis=1).data, a.data)

    def test_block_structure(self):
        rng = np.random.default_rng(17)
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
        out = concat([Tensor(a), Tensor(b)], axis=1)
        assert out.shape == (2, 6)
        np.testing.assert_allclose(out.data[:, :3], a)
        np.testing.assert_allclose(out.data[:, 3:], b)

    def test_incompatible_shapes(self):
        with pytest.raises(ShapeError):
            concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3)))], axis=1)

    def test_gradient_split(self):
        rng = np.random.default_rng(18)
        w = rng.normal(size=(2, 6))
        b0 = rng.normal(size=(2, 3))
        for _ in range(20):
            a0 = rng.normal(size=(2, 3))
            check_grad(
                lambda t: tsum(mul(concat([t, Tensor(b0)], axis=1), Tensor(w))),
                a0)

    def test_narrow_values_and_grad(self):
        rng = np.random.default_rng(19)
        x0 = rng.normal(size=(3, 6))
        out = narrow(Tensor(x0), 1, 2, 3)
        np.testing.assert_allclose(out.data, x0[:, 2:5])
        w = rng.normal(size=(3, 3))
        check_grad(lambda t: tsum(mul(narrow(t, 1, 2, 3), Tensor(w))), x0)

    def test_narrow_bounds(self):
        with pytest.raises(ShapeError):
            narrow(Tensor(np.zeros((2, 4))), 1, 0, 5)
        with pytest.raises(ShapeError):
            narrow(Tensor(np.zeros((2, 4))), 1, -1, 2)


class TestTake:
    def test_gather(self):
        x = Tensor(np.arange(12.0).reshape(3, 4))
        idx = np.array([[0, 5], [11, 5]])
        np.testing.assert_allclose(take(x, idx).data, [[0.0, 5.0], [11.0, 5.0]])

    def test_repeated_index_accumulates(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        tsum(take(x, np.array([1, 1, 1, 0]))).backward()
        np.testing.assert_allclose(x.grad, [1.0, 3.0, 0.0])

    def test_gradient(self):
        rng = np.random.default_rng(20)
        idx = rng.integers(0, 12, size=(2, 5))
        w = rng.normal(size=(2, 5))
        for _ in range(10):
            x0 = rng.normal(size=(3, 4))
            check_grad(lambda t: tsum(mul(take(t, idx), Tensor(w))), x0)

    def test_out_of_range(self):
        with pytest.raises(ShapeError):
            take(Tensor(np.zeros((2, 2))), np.array([4]))


class TestReshapePermute:
    def test_reshape_values_and_grad(self):
        rng = np.random.default_rng(40)
        x0 = rng.normal(size=(2, 6))
        np.testing.assert_array_equal(reshape(Tensor(x0), (3, 4)).data, x0.reshape(3, 4))
        w = rng.normal(size=(3, 4))
        check_grad(lambda t: tsum(mul(reshape(t, (3, 4)), Tensor(w))), x0)

    def test_reshape_size_mismatch(self):
        with pytest.raises(ShapeError, match="reshape"):
            reshape(Tensor(np.zeros((2, 3))), (4, 2))

    def test_permute_acts_on_trailing_axes(self):
        rng = np.random.default_rng(41)
        x0 = rng.normal(size=(2, 3, 4, 5))
        out = permute(Tensor(x0), (2, 0, 1))
        np.testing.assert_array_equal(out.data, x0.transpose(0, 3, 1, 2))
        assert out.data.flags["C_CONTIGUOUS"]
        w = rng.normal(size=out.shape)
        check_grad(lambda t: tsum(mul(permute(t, (2, 0, 1)), Tensor(w))), x0)

    def test_permute_rejects_non_permutation(self):
        with pytest.raises(ShapeError, match="permute"):
            permute(Tensor(np.zeros((2, 3))), (0, 0))
        with pytest.raises(ShapeError, match="permute"):
            permute(Tensor(np.zeros((2, 3))), (2, 0, 1))


class TestLeadingAxes:
    """A stacked op equals the op applied to each sample; gradients through
    the stacked op match finite differences."""

    def test_matmul_broadcasts_leading_axes(self):
        rng = np.random.default_rng(42)
        a0 = rng.normal(size=(2, 3, 4, 5))
        b0 = rng.normal(size=(3, 5, 2))
        out = matmul(Tensor(a0), Tensor(b0)).data
        for i in range(2):
            for j in range(3):
                np.testing.assert_allclose(out[i, j], a0[i, j] @ b0[j], atol=1e-12)
        check_grad(lambda t: tsum(mul(matmul(t, Tensor(b0)), Tensor(out))), a0)
        check_grad(lambda t: tsum(mul(matmul(Tensor(a0), t), Tensor(out))), b0)

    def test_matmul_leading_axes_must_broadcast(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4, 2))))

    def test_transpose_swaps_last_two_axes(self):
        x0 = np.random.default_rng(43).normal(size=(2, 3, 4))
        np.testing.assert_array_equal(transpose(Tensor(x0)).data, x0.transpose(0, 2, 1))
        check_grad(lambda t: tsum(mul(transpose(t), transpose(t))), x0)

    def test_row_ops_match_per_sample(self):
        rng = np.random.default_rng(44)
        x0 = rng.normal(size=(3, 4, 5))
        w0, b0 = rng.normal(size=(5, 2)), rng.normal(size=2)
        g0, be0 = rng.normal(size=5), rng.normal(size=5)
        ops = [
            lambda t: linear(t, Tensor(w0), Tensor(b0)),
            lambda t: layernorm(t, Tensor(g0), Tensor(be0)),
            lambda t: softmax(t, axis=-1),
            gelu,
        ]
        for op in ops:
            batched = op(Tensor(x0)).data
            for i in range(3):
                np.testing.assert_allclose(batched[i], op(Tensor(x0[i])).data, atol=1e-12)
            w = rng.normal(size=batched.shape)
            check_grad(lambda t: tsum(mul(op(t), Tensor(w))), x0)
        check_grad(lambda t: tsum(linear(Tensor(x0), t, Tensor(b0))), w0)
        check_grad(lambda t: tsum(mul(layernorm(Tensor(x0), t, Tensor(be0)),
                                      Tensor(x0))), g0)

    def test_cross_entropy_is_mean_over_all_rows(self):
        rng = np.random.default_rng(45)
        x0 = rng.normal(size=(3, 4, 5))
        labels = rng.integers(0, 5, size=(3, 4))
        batched = float(cross_entropy(Tensor(x0), labels).data)
        per_sample = [float(cross_entropy(Tensor(x0[i]), labels[i]).data) for i in range(3)]
        np.testing.assert_allclose(batched, np.mean(per_sample), atol=1e-12)
        check_grad(lambda t: cross_entropy(t, labels), x0)
        with pytest.raises(ShapeError):
            cross_entropy(Tensor(x0), labels.reshape(-1))

    def test_upsample_rows_of_stacked_fields(self):
        rng = np.random.default_rng(46)
        x0 = rng.normal(size=(2, 3, 4, 5))
        out = upsample_bilinear(Tensor(x0), (2, 2), (4, 4)).data
        assert out.shape == (2, 3, 16, 5)
        for i in range(2):
            for j in range(3):
                np.testing.assert_allclose(
                    out[i, j], oracles.upsample_rows(x0[i, j], (2, 2), (4, 4)), atol=1e-12)


class TestUpsampleBilinear:
    def test_identity_same_size(self):
        x = Tensor(np.arange(8.0).reshape(4, 2))
        assert upsample_bilinear(x, (2, 2), (2, 2)) is x

    def test_downsample_rejected(self):
        with pytest.raises(ShapeError):
            upsample_bilinear(Tensor(np.zeros((4, 1))), (2, 2), (1, 2))

    def test_constant_preserved(self):
        for src, dst in (((2, 2), (4, 4)), ((3, 5), (7, 11))):
            x = Tensor(np.full((src[0] * src[1], 3), 2.75))
            out = upsample_bilinear(x, src, dst).data
            np.testing.assert_allclose(out, 2.75, atol=1e-12)

    def test_2x2_to_4x4_matches_reference(self):
        field = np.array([[0.0, 1.0], [2.0, 3.0]])
        out = upsample_bilinear(Tensor(field.reshape(4, 1)), (2, 2), (4, 4)).data
        ref = oracles.bilinear_upsample(field[:, :, None], (4, 4)).reshape(16, 1)
        np.testing.assert_allclose(out, ref, atol=1e-9)

    def test_random_sizes_match_reference(self):
        rng = np.random.default_rng(21)
        for src, dst in (((2, 3), (5, 7)), ((3, 2), (3, 8)), ((4, 4), (9, 9))):
            x = rng.normal(size=(src[0] * src[1], 4))
            out = upsample_bilinear(Tensor(x), src, dst).data
            np.testing.assert_allclose(out, oracles.upsample_rows(x, src, dst),
                                       atol=1e-9)

    def test_row_stochastic_rows_stay_normalized(self):
        rng = np.random.default_rng(22)
        x = rng.uniform(size=(6, 5))
        x /= x.sum(axis=1, keepdims=True)
        out = upsample_bilinear(Tensor(x), (2, 3), (4, 9)).data
        np.testing.assert_allclose(out.sum(axis=1), np.ones(36), atol=1e-9)

    def test_gradient(self):
        rng = np.random.default_rng(23)
        w = rng.normal(size=(16, 2))
        for _ in range(10):
            x0 = rng.normal(size=(4, 2))
            check_grad(
                lambda t: tsum(mul(upsample_bilinear(t, (2, 2), (4, 4)),
                                   Tensor(w))), x0)
        # batched, non-square grid, unequal factors on the two axes
        w = rng.normal(size=(2, 3, 35, 4))
        check_grad(lambda t: tsum(mul(upsample_bilinear(t, (2, 3), (5, 7)), Tensor(w))),
                   rng.normal(size=(2, 3, 6, 4)))

    @pytest.mark.parametrize("src, dst", [((16, 16), (32, 32)), ((8, 8), (32, 32)),
                                          ((8, 8), (16, 16))])
    def test_stacked_head_maps_float32(self, src, dst):
        # (batch, heads, N, K) self-attention maps at the grids the model upsamples
        rng = np.random.default_rng(24)
        n = src[0] * src[1]
        maps = rng.uniform(size=(4, 4, n, n)).astype(np.float32)
        maps /= maps.sum(axis=-1, keepdims=True)
        out = upsample_bilinear(Tensor(maps), src, dst).data
        assert out.dtype == np.float32 and out.shape == (4, 4, dst[0] * dst[1], n)
        for b in range(4):
            for h in range(4):
                ref = oracles.upsample_rows(maps[b, h], src, dst)
                np.testing.assert_allclose(out[b, h], ref, rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-5)


class TestWeightPair:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_cached_read_only_in_callers_dtype(self, dtype):
        rng = np.random.default_rng(25)
        for src, dst in (((4, 2), (16, 16)), ((8, 8), (16, 16)), ((2, 3), (4, 6))):
            x = Tensor(rng.normal(size=(2, src[0] * src[1], 3)), dtype=dtype)
            out = upsample_bilinear(x, src, dst).data
            assert out.dtype == dtype
            mh, mw = _weight_pair(src, dst, x.dtype)
            assert _weight_pair(src, dst, x.dtype)[0] is mh  # served from the cache
            for t, n, n2 in ((mh, src[0], dst[0]), (mw, src[1], dst[1])):
                assert t.dtype == dtype and not t.requires_grad
                assert not t.data.flags.writeable
                np.testing.assert_array_equal(t.data, _interp_axis_weights(n, n2).astype(dtype))


class TestCrossEntropy:
    def test_saturated(self):
        logits = np.full((2, 3), -1e6)
        logits[0, 1] = logits[1, 2] = 1e6
        loss = cross_entropy(Tensor(logits), np.array([1, 2]))
        assert float(loss.data) <= 1e-9

    def test_uniform(self):
        loss = cross_entropy(Tensor(np.zeros((5, 4))), np.zeros(5, dtype=int))
        np.testing.assert_allclose(float(loss.data), np.log(4.0), atol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(24)
        labels = rng.integers(0, 3, size=6)
        for _ in range(20):
            x0 = rng.normal(size=(6, 3))
            check_grad(lambda t: cross_entropy(t, labels), x0)

    def test_negative_label_rejected(self):
        # no label value is ignored: -1 is out of range like any other
        with pytest.raises(ValueError, match=r"label outside \[0, 3\)"):
            cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, -1]))

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))


class TestBackward:
    def test_sum_gradient_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        tsum(x).backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_square_gradient(self):
        x0 = np.array([1.0, -2.0, 3.0])
        x = Tensor(x0, requires_grad=True)
        tsum(mul(x, x)).backward()
        np.testing.assert_allclose(x.grad, 2 * x0)

    def test_double_use_sums_contributions(self):
        x = Tensor(np.ones(4), requires_grad=True)
        (tsum(x) + tsum(x)).backward()
        np.testing.assert_allclose(x.grad, 2 * np.ones(4))

    def test_non_scalar_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros(3), requires_grad=True).backward()

    def test_second_backward_on_one_graph_doubles_leaf_grad(self):
        # Intermediate grads are dropped once passed on, so the second call
        # adds exactly what the first one did.
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        loss = tsum(mul(x, x))
        loss.backward()
        np.testing.assert_allclose(x.grad, [2.0, 4.0])
        loss.backward()
        np.testing.assert_allclose(x.grad, [4.0, 8.0])

    def test_accumulation_without_zeroing(self):
        x = Tensor(np.ones(3), requires_grad=True)
        tsum(x).backward()
        tsum(x).backward()
        np.testing.assert_allclose(x.grad, 2 * np.ones(3))

    def test_off_path_tensor_has_no_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = Tensor(np.ones(3), requires_grad=True)
        tsum(x).backward()
        assert y.grad is None

    def test_no_grad_leaf_stays_clean(self):
        x = Tensor(np.ones(3), requires_grad=True)
        c = Tensor(np.full(3, 2.0))
        tsum(mul(x, c)).backward()
        np.testing.assert_allclose(x.grad, np.full(3, 2.0))
        assert c.grad is None


class TestNoGrad:
    def test_ops_record_no_graph(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        with no_grad():
            out = tsum(mul(linear(x, Tensor(np.ones((3, 2))), Tensor(np.zeros(2))),
                           Tensor(np.ones((2, 2)))))
        assert not out.requires_grad
        assert out._children == () and out._backward is None
        np.testing.assert_allclose(out.data, 12.0)
        # recording resumes after the block
        assert tsum(mul(x, x)).requires_grad

    def test_state_restored_after_error(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert tsum(x).requires_grad
