"""Optimizer and LR schedule against hand-computed trajectories."""

import numpy as np
import pytest

import oracles
from tsgseg.module import Parameter
from tsgseg.optim import AdamW, OptimError, poly_lr


def scalar_param(value: float, dtype=np.float64) -> Parameter:
    return Parameter(np.array(value, dtype=dtype))


class TestPolyLr:
    def test_endpoints(self):
        assert poly_lr(0, 100, 1e-3) == 1e-3
        assert poly_lr(100, 100, 1e-3) == 0.0

    def test_midpoint(self):
        np.testing.assert_allclose(poly_lr(50, 100, 2.0), 2.0 * 0.5 ** 0.9)

    def test_monotone_decreasing(self):
        values = [poly_lr(s, 60, 1.0) for s in range(61)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_power_one_is_linear(self):
        np.testing.assert_allclose(poly_lr(25, 100, 1.0, power=1.0), 0.75)

    def test_validation(self):
        with pytest.raises(ValueError):
            poly_lr(0, 0, 1.0)
        with pytest.raises(ValueError):
            poly_lr(-1, 10, 1.0)
        with pytest.raises(ValueError):
            poly_lr(11, 10, 1.0)


class TestAdamW:
    def test_first_step_hand_value(self):
        # With fresh moments the bias corrections cancel, so the very first
        # update moves by lr * sign(grad) regardless of gradient size.
        p = scalar_param(1.0)
        p.grad = np.array(0.1)
        opt = AdamW([("p", p)], weight_decay=0.0)
        opt.step(lr=0.1)
        assert abs(float(p.data) - 0.9000) <= 1e-4

    def test_trajectory_matches_reference(self):
        rng = np.random.default_rng(0)
        grads = [float(g) for g in rng.normal(size=12)]
        p = scalar_param(0.7)
        opt = AdamW([("p", p)], weight_decay=0.0)
        got = []
        for g in grads:
            p.grad = np.array(g)
            opt.step(lr=0.05)
            got.append(float(p.data))
        ref = oracles.adam_trajectory(0.7, grads, lr=0.05)
        np.testing.assert_allclose(got, ref, rtol=1e-12)

    def test_decay_is_decoupled(self):
        # Zero gradient: the moment track contributes nothing, leaving the
        # pure multiplicative decay p * (1 - lr * wd).
        p = scalar_param(2.0)
        p.grad = np.array(0.0)
        opt = AdamW([("p", p)], weight_decay=0.01)
        opt.step(lr=0.5)
        np.testing.assert_allclose(float(p.data), 2.0 * (1.0 - 0.5 * 0.01))

    def test_decay_applies_alongside_gradient(self):
        p_decay = scalar_param(1.0)
        p_plain = scalar_param(1.0)
        for p in (p_decay, p_plain):
            p.grad = np.array(0.3)
        AdamW([("a", p_decay)], weight_decay=0.1).step(lr=0.1)
        AdamW([("b", p_plain)], weight_decay=0.0).step(lr=0.1)
        np.testing.assert_allclose(float(p_decay.data),
                                   float(p_plain.data) - 0.1 * 0.1 * 1.0,
                                   atol=1e-12)

    def test_missing_gradient_named(self):
        p = scalar_param(1.0)
        q = scalar_param(1.0)
        p.grad = np.array(0.1)
        opt = AdamW([("layer.w", p), ("layer.b", q)])
        with pytest.raises(OptimError, match="layer.b"):
            opt.step(lr=0.1)

    def test_zero_grad(self):
        p = scalar_param(1.0)
        p.grad = np.array(0.1)
        opt = AdamW([("p", p)])
        opt.zero_grad()
        assert p.grad is None

    def test_dtype_preserved(self):
        p = Parameter(np.ones((2, 2), dtype=np.float32))
        p.grad = np.full((2, 2), 0.5, dtype=np.float32)
        opt = AdamW([("p", p)], weight_decay=0.01)
        opt.step(lr=1e-3)
        assert p.data.dtype == np.float32

    def test_step_writes_no_caller_array(self):
        # Moments update in place; grads and the arrays the parameters held
        # before the step keep their values.
        rng = np.random.default_rng(3)
        params = [Parameter(rng.normal(size=shape).astype(np.float32))
                  for shape in ((3, 4), (4,), ())]
        for p in params:
            p.grad = rng.normal(size=p.shape).astype(np.float32)
        opt = AdamW([(str(i), p) for i, p in enumerate(params)])
        for _ in range(2):
            before = [(p.data, p.data.copy(), p.grad, p.grad.copy()) for p in params]
            opt.step(lr=0.1)
            for p, (data, data_copy, grad, grad_copy) in zip(params, before):
                np.testing.assert_array_equal(data, data_copy)
                assert p.grad is grad
                np.testing.assert_array_equal(grad, grad_copy)
                assert p.data is not data and p.data.dtype == np.float32
                assert isinstance(p.data, np.ndarray) and p.data.shape == p.shape

    def test_parameters_updated_independently(self):
        a, b = scalar_param(1.0), scalar_param(1.0)
        a.grad = np.array(1.0)
        b.grad = np.array(-1.0)
        opt = AdamW([("a", a), ("b", b)], weight_decay=0.0)
        opt.step(lr=0.1)
        np.testing.assert_allclose(float(a.data) + float(b.data), 2.0, atol=1e-12)
        assert float(a.data) < 1.0 < float(b.data)

    def test_moments_persist_across_steps(self):
        # Same gradient twice: the second update is larger than lr because
        # bias-corrected momentum has warmed up while v stays at g^2.
        p = scalar_param(0.0)
        opt = AdamW([("p", p)], weight_decay=0.0)
        deltas = []
        for _ in range(2):
            before = float(p.data)
            p.grad = np.array(0.2)
            opt.step(lr=0.1)
            deltas.append(before - float(p.data))
        np.testing.assert_allclose(deltas[0], 0.1, atol=1e-7)
        np.testing.assert_allclose(deltas[1], 0.1, atol=1e-7)
        assert opt.step_count == 2
