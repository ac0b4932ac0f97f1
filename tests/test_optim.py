"""Optimizer and LR schedule against hand-computed trajectories."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import oracles
from tsgseg.checkpoint import load_model, save_checkpoint
from tsgseg.config import resolve_config
from tsgseg.model import build_model
from tsgseg.module import Module, Parameter
from tsgseg.optim import BETAS, EPS, AdamW, OptimError, poly_lr
from tsgseg.tensor import Tensor, add, cross_entropy, mul, tsum
from tsgseg.train import VARIANTS


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
        # The step updates the optimizer's own value buffer in place, so each
        # p.data stays the same array and its values change, and the
        # gradients keep their values. A step after a caller binds arrays of
        # its own to p.data raises, and neither they nor the optimizer change.
        rng = np.random.default_rng(3)
        params = [Parameter(rng.normal(size=shape).astype(np.float32))
                  for shape in ((3, 4), (4,), ())]
        for p in params:
            p.grad = rng.normal(size=p.shape).astype(np.float32)
        opt = AdamW([(str(i), p) for i, p in enumerate(params)])
        slots = [p.data for p in params]
        mine = [rng.normal(size=p.shape).astype(np.float32) for p in params]
        mine_copies = [a.copy() for a in mine]
        for step in range(3):
            if step == 1:
                for p, a in zip(params, mine):
                    p.data = a
                state = [x.copy() for x in (opt.data, opt.m, opt.v)]
                with pytest.raises(OptimError, match=r"'0'.*float32.*\(3, 4\)"):
                    opt.step(lr=0.1)
                assert opt.step_count == 1
                for x, copy in zip((opt.data, opt.m, opt.v), state):
                    np.testing.assert_array_equal(x, copy)
                for p, slot in zip(params, slots):
                    p.data = slot
            before = [(p.data.copy(), p.grad, p.grad.copy()) for p in params]
            opt.step(lr=0.1)
            for p, slot, (data_copy, grad, grad_copy) in zip(params, slots, before):
                assert p.grad is grad
                np.testing.assert_array_equal(grad, grad_copy)
                assert p.data is slot and p.data.dtype == np.float32
                assert p.data.shape == p.shape
                assert not np.array_equal(p.data, data_copy)
        for a, copy in zip(mine, mine_copies):
            np.testing.assert_array_equal(a, copy)

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


class ReferenceAdamW:
    """The per-tensor AdamW step: one moment pair per parameter and the
    formula's 16 operations in order, on arrays the caller passes."""

    def __init__(self, arrays, weight_decay=0.01):
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = [np.zeros_like(a) for a in arrays]
        self.v = [np.zeros_like(a) for a in arrays]

    def step(self, lr, values, grads):
        """The new values; ``values`` and ``grads`` are left as they are."""
        self.step_count += 1
        b1, b2 = BETAS
        bc1 = 1.0 - b1 ** self.step_count
        bc2 = 1.0 - b2 ** self.step_count
        decay = lr * self.weight_decay
        out = []
        for p, g, m, v in zip(values, grads, self.m, self.v):
            s, u = np.empty_like(p), np.empty_like(p)
            np.multiply(g, 1.0 - b1, out=s)
            m *= b1
            m += s
            np.multiply(g, 1.0 - b2, out=s)
            s *= g
            v *= b2
            v += s
            np.divide(m, bc1, out=u)
            u *= lr
            np.divide(v, bc2, out=s)
            np.sqrt(s, out=s)
            s += EPS
            u /= s
            np.multiply(p, decay, out=s)
            np.subtract(p, s, out=s)
            s -= u
            out.append(s)
        return out


def assert_same_bits(got, want, name=""):
    assert got.dtype == want.dtype and got.shape == want.shape, name
    assert got.tobytes() == want.tobytes(), name


def random_params(rng, dtype):
    return [Parameter(rng.normal(size=shape).astype(dtype))
            for shape in ((5, 3), (7,), (), (2, 3, 4), (1,))]


class TestFlatBuffers:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_five_steps_match_the_per_tensor_step_bit_for_bit(self, dtype):
        rng = np.random.default_rng(11)
        params = random_params(rng, dtype)
        ref_values = [p.data.copy() for p in params]
        opt = AdamW([(str(i), p) for i, p in enumerate(params)], weight_decay=0.05)
        ref = ReferenceAdamW(ref_values, weight_decay=0.05)
        for lr in (1e-2, 3e-3, 7e-4, 2e-2, 1e-4):
            for p in params:
                p.grad = rng.normal(size=p.shape).astype(dtype)
            ref_values = ref.step(lr, ref_values, [p.grad for p in params])
            opt.step(lr)
            for i, (p, want) in enumerate(zip(params, ref_values)):
                assert_same_bits(p.data, want, str(i))

    def test_zero_dim_parameter_steps_on_its_backward_gradient(self):
        w = Parameter(np.array(0.5))
        x = Tensor(np.array([1.0, -2.0, 4.0]))
        opt = AdamW([("w", w)])
        ref = ReferenceAdamW([w.data.copy()])
        values = [w.data.copy()]
        for lr in (0.1, 0.05):
            opt.zero_grad()
            # w enters twice, so its gradient is kept and then added to
            tsum(add(mul(x, w), mul(x, w))).backward()
            assert isinstance(w.grad, np.ndarray) and w.grad.shape == ()
            assert_same_bits(w.grad, np.array(2 * (1.0 - 2.0 + 4.0)))
            values = ref.step(lr, values, [w.grad.copy()])
            opt.step(lr)
            assert_same_bits(w.data, values[0])

    @pytest.mark.parametrize("precision,variant", [
        ("single", "tsg"), ("double", "tsg"), ("single", "tsg_shared")])
    def test_desk_model_steps_match_the_per_tensor_step(self, precision, variant):
        # Gradients from backward equal, bit for bit, those of a twin model
        # that has no optimizer.
        cfg = replace(resolve_config("desk", {"precision": precision}),
                      **VARIANTS[variant])
        model, twin = build_model(cfg, seed=0), build_model(cfg, seed=0)
        named = model.named_parameters()
        opt = AdamW(named, weight_decay=cfg.weight_decay)
        assert opt.grad.size == sum(p.data.size for _, p in named)
        ref = ReferenceAdamW([p.data for p in twin.parameters()],
                             weight_decay=cfg.weight_decay)
        rng = np.random.default_rng(5)
        images = rng.uniform(size=(2, cfg.height, cfg.width, 3))
        gh, gw = model.target_grid
        labels = rng.integers(0, cfg.num_classes, size=(2, gh * gw))
        for lr in (1e-3, 4e-4):
            for m in (model, twin):
                for p in m.parameters():
                    p.grad = None
                cross_entropy(m(Tensor(images, dtype=cfg.dtype)).scores, labels).backward()
            new = ref.step(lr, [p.data for p in twin.parameters()],
                           [p.grad for p in twin.parameters()])
            for p, q in zip(twin.parameters(), new):
                p.data = q
            for (name, p), (_, q) in zip(named, twin.named_parameters()):
                assert_same_bits(p.grad, q.grad, name)
            opt.step(lr)
            for (name, p), (_, q) in zip(named, twin.named_parameters()):
                assert_same_bits(p.data, q.data, name)

    def test_shared_parameter_gets_one_slot(self):
        cfg = replace(resolve_config("desk", {"precision": "single"}),
                      **VARIANTS["tsg_shared"])
        model = build_model(cfg, seed=0)
        heads = model.decoder.gate_heads
        assert len(heads) > 1 and all(h is heads[0] for h in heads)
        opt = AdamW(model.named_parameters())
        shared = heads[0].named_parameters()
        assert shared
        for _, p in shared:
            assert sum(np.shares_memory(p.data, slot) for slot in opt.slots) == 1

    def test_optimizer_sets_no_attribute_on_a_parameter(self):
        # The step gathers the gradients itself; backward needs nothing from
        # the optimizer, so AdamW leaves each parameter's attributes as it
        # found them and only rebinds data.
        rng = np.random.default_rng(3)
        params = random_params(rng, np.float64)
        before = [set(vars(p)) for p in params]
        opt = AdamW([(str(i), p) for i, p in enumerate(params)])
        for p in params:
            p.grad = rng.normal(size=p.shape)
        opt.step(0.1)
        assert [set(vars(p)) for p in params] == before

    def test_loaded_value_is_the_one_the_next_step_updates(self, tmp_path):
        # checkpoint.load_model writes into each p.data, the optimizer's slot.
        class Tiny(Module):
            def __init__(self):
                self.w = Parameter(np.ones((2, 3), dtype=np.float32))
                self.b = Parameter(np.zeros(3, dtype=np.float32))

        model = Tiny()
        named = model.named_parameters()
        opt = AdamW(named)
        ref = ReferenceAdamW([p.data.copy() for _, p in named])
        grads = [np.full(p.shape, 0.25, dtype=np.float32) for _, p in named]
        for (_, p), g in zip(named, grads):
            p.grad = g
        opt.step(0.1)
        ref.step(0.1, [p.data.copy() for _, p in named], grads)
        loaded = {"w": np.arange(6, dtype=np.float32).reshape(2, 3),
                  "b": np.array([1.0, -1.0, 0.5], dtype=np.float32)}
        save_checkpoint(tmp_path / "m.ckpt", loaded)
        load_model(tmp_path / "m.ckpt", model)
        assert all(p.data is slot for (_, p), slot in zip(named, opt.slots))
        want = ref.step(0.05, [loaded[name] for name, _ in named], grads)
        opt.step(0.05)
        for (name, p), w in zip(named, want):
            assert_same_bits(p.data, w, name)

    def test_gradient_a_caller_sets_is_the_one_used(self):
        w = Parameter(np.array([0.5, -1.0, 2.0]))
        x = Tensor(np.array([1.0, 3.0, -2.0]))
        opt = AdamW([("w", w)])
        tsum(mul(x, w)).backward()
        mine = w.grad * -3.0
        w.grad = mine
        want = ReferenceAdamW([w.data]).step(0.1, [w.data.copy()], [mine])
        opt.step(0.1)
        assert w.grad is mine
        assert_same_bits(w.data, want[0])


def test_optimizer_memory():
    # Five parameter-sized vectors (values, gradients, both moments and a
    # scratch vector) are allocated once; a later step allocates none.
    cfg = resolve_config("desk", {"precision": "single"})
    model = build_model(cfg, seed=0)
    named = model.named_parameters()
    nbytes = sum(p.data.nbytes for _, p in named)
    rng = np.random.default_rng(2)
    for _, p in named:
        p.grad = rng.normal(size=p.shape).astype(np.float32)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        opt = AdamW(named, weight_decay=cfg.weight_decay)
        built = tracemalloc.get_traced_memory()[1] - start
        opt.step(1e-3)
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        opt.step(1e-3)
        stepped = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert built <= 5.5 * nbytes, built / nbytes
    assert stepped < 64 * 1024, stepped


class TestBoundary:
    def test_gradient_of_another_shape_named(self):
        p = Parameter(np.ones(3))
        p.grad = np.ones(1)  # would broadcast through every ufunc
        opt = AdamW([("layer.w", p)])
        with pytest.raises(OptimError, match=r"'layer.w'.*shape \(1,\)"):
            opt.step(lr=0.1)

    def test_gradient_of_another_dtype_named(self):
        p = Parameter(np.ones(3, dtype=np.float32))
        p.grad = np.ones(3)
        opt = AdamW([("layer.w", p)])
        with pytest.raises(OptimError, match=r"'layer.w'.*float64"):
            opt.step(lr=0.1)

    def test_parameters_of_two_dtypes_named(self):
        a = Parameter(np.ones(2, dtype=np.float32))
        b = Parameter(np.ones(2))
        with pytest.raises(OptimError, match=r"'b'.*float64"):
            AdamW([("a", a), ("b", b)])

    def test_value_rebound_to_another_dtype_named(self):
        p = Parameter(np.ones(2, dtype=np.float32))
        opt = AdamW([("p", p)])
        p.data, p.grad = np.ones(2), np.ones(2, dtype=np.float32)
        with pytest.raises(OptimError, match=r"'p'.*float64"):
            opt.step(lr=0.1)

    def test_empty_parameter_list(self):
        with pytest.raises(OptimError, match="at least one parameter"):
            AdamW([])

    def test_parameter_listed_twice_named(self):
        p = Parameter(np.ones(2))
        with pytest.raises(OptimError, match=r"'again' is listed twice.*'p'"):
            AdamW([("p", p), ("again", p)])

    def test_failed_check_changes_nothing(self):
        a, b = Parameter(np.ones(2)), Parameter(np.ones(2))
        opt = AdamW([("a", a), ("b", b)])
        a.grad, b.grad = np.ones(2), np.ones(3)
        before = a.data
        with pytest.raises(OptimError, match="'b'"):
            opt.step(lr=0.1)
        assert a.data is before and opt.step_count == 0
        np.testing.assert_array_equal(a.data, np.ones(2))
        assert not opt.m.any() and not opt.v.any()
