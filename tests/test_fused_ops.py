"""The fused attention ops against the unfused formulation they replace.

``head_linear`` is ``linear(concat_heads(stack))`` without the concatenated
copy, and ``self_attention`` is ``softmax(matmul(scale(q, c), k))``,
``matmul`` and one ``head_linear`` per reader, formed in blocks of query
rows without keeping the map. The cross maps are that softmax over plain
ops. Forward values are checked against the loop oracles, in float64
(rtol 1e-12) and float32 (rtol 1e-5); gradients against finite differences
and against the unfused graph. The in-place softmax backward is checked
where a shared or non-contiguous grad could be corrupted. ``self_attention``
gives the same bits with its row blocks on a thread pool as inline.
"""

import math
import multiprocessing
import os
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import helpers
import oracles
from tsgseg.attention import (CROSS_GATED_KIND, CROSS_KIND, SELF_KIND, AttentionBundle,
                              MhaConfig, MultiheadCrossAttention, MultiheadSelfAttention,
                              _split_heads, concat_heads)
from tsgseg.config import resolve_config
from tsgseg.model import build_model
from tsgseg.scale_gate import TsgHead
from tsgseg import cpus, tensor
from tsgseg.tensor import (ShapeError, Tensor, _accumulate_matmul, _Node, add,
                           cross_entropy, head_linear, linear, matmul, mul,
                           narrow, permute, reshape, scale, self_attention, softmax,
                           transpose, tsum, upsample_bilinear)
from tsgseg.train import VARIANTS

from test_tensor import check_grad

RTOL = {np.float64: 1e-12, np.float32: 1e-5}


def assert_rel_close(actual, expected, dtype):
    """``actual`` within the dtype's rtol of ``expected``, relative to its
    largest entry, so entries near zero do not need a separate bound."""
    tol = RTOL[dtype] * max(1.0, float(np.max(np.abs(expected))))
    np.testing.assert_allclose(actual, expected, rtol=RTOL[dtype], atol=tol)


def qk_operands(rng, lead, nq, nk, d, dtype):
    q = rng.normal(size=lead + (nq, d)).astype(dtype)
    k = rng.normal(size=lead + (d, nk)).astype(dtype)
    return q, k


def map_probs(q: Tensor, k: Tensor, c: float, axis: int = -1) -> Tensor:
    """``softmax(c * q @ k)`` along ``axis``, as the cross layer forms its
    maps and a self-attention bundle its ``stacked``."""
    return softmax(matmul(scale(q, c), k), axis)


class TestAttentionProbs:
    """The attention probabilities the bundles hold, formed from plain ops."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("axis", [-1, -2])
    def test_matches_oracle_with_batch_and_head_axes(self, dtype, axis):
        rng = np.random.default_rng(70)
        c = 1.0 / math.sqrt(4)
        q, k = qk_operands(rng, (2, 3), 5, 7, 4, dtype)
        out = map_probs(Tensor(q), Tensor(k), c, axis=axis)
        assert out.shape == (2, 3, 5, 7) and out.dtype == dtype
        for b in range(2):
            for h in range(3):
                logits = (q[b, h].astype(np.float64) * c) @ k[b, h].astype(np.float64)
                expected = oracles.softmax2d(logits, 1 if axis == -1 else 0)
                assert_rel_close(out.data[b, h], expected, dtype)

    @pytest.mark.parametrize("axis", [-1, -2])
    def test_gradients_vs_finite_differences(self, axis):
        rng = np.random.default_rng(71)
        q0, k0 = qk_operands(rng, (2, 2), 3, 4, 2, np.float64)
        w = Tensor(rng.normal(size=(2, 2, 3, 4)))
        c = 0.7
        check_grad(lambda t: tsum(mul(map_probs(t, Tensor(k0), c, axis), w)), q0)
        check_grad(lambda t: tsum(mul(map_probs(Tensor(q0), t, c, axis), w)), k0)

    def test_leading_axes_broadcast_and_reduce(self):
        # one set of (C, d) class queries against a (B, N, d) batch of
        # memories, as in the first decoder block: the queries' grad is the
        # sum of the grads each memory alone gives them
        attn = MultiheadCrossAttention(MhaConfig(heads=2, model_dim=4),
                                       np.random.default_rng(73))
        rng = np.random.default_rng(74)
        q0, memory = rng.normal(size=(3, 4)), rng.normal(size=(2, 6, 4))
        w_out, w_att, w_gate = (rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 2, 3, 6)),
                                rng.normal(size=(2, 2, 3, 6)))

        def q_grad(mem, *ws):
            q = Tensor(q0, requires_grad=True)
            out, bundle, gated = attn(q, Tensor(mem), gate_softmax=True)
            loss = (tsum(mul(out, Tensor(ws[0]))) + tsum(mul(bundle.stacked, Tensor(ws[1])))
                    + tsum(mul(gated.stacked, Tensor(ws[2]))))
            loss.backward()
            return q.grad

        batched = q_grad(memory, w_out, w_att, w_gate)
        summed = sum(q_grad(memory[i], w_out[i], w_att[i], w_gate[i]) for i in range(2))
        np.testing.assert_allclose(batched, summed, rtol=1e-12, atol=1e-14)


def unfused_projection(stack: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return linear(concat_heads(stack), w, b)


class TestHeadLinear:
    # (batch, heads, rows, cols, d_a): integrate_self's N x N maps and
    # integrate_cross's transposed C x N maps (rows N, cols C)
    SHAPES = {"self": (2, 2, 16, 16, 6), "cross": (2, 3, 16, 5, 6)}

    def operands(self, kind, dtype, bias, seed=74):
        rng = np.random.default_rng(seed)
        batch, heads, rows, cols, d_a = self.SHAPES[kind]
        maps = rng.uniform(size=(batch, heads, rows, cols)).astype(dtype)
        w = Tensor(rng.normal(size=(heads * cols, d_a)).astype(dtype), requires_grad=True)
        b = (Tensor(rng.normal(size=d_a).astype(dtype), requires_grad=True) if bias
             else Tensor(np.zeros(d_a, dtype=dtype)))
        return maps, w, b

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("bias", [True, False])
    def test_self_shape_matches_oracle(self, dtype, bias):
        maps, w, b = self.operands("self", dtype, bias)
        out = head_linear(Tensor(maps), w, b)
        assert out.shape == (2, 16, 6) and out.dtype == dtype
        params = [{"w": w.data.astype(np.float64), "b": b.data.astype(np.float64)}]
        for i in range(maps.shape[0]):
            heads = [m.astype(np.float64) for m in maps[i]]
            assert_rel_close(out.data[i], oracles.integrate_self_maps([heads], params),
                             dtype)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("bias", [True, False])
    def test_cross_shape_matches_oracle(self, dtype, bias):
        # the cross bundle holds C x N maps; the integrator reads them N x C
        patch_major, w, b = self.operands("cross", dtype, bias)
        class_major = np.ascontiguousarray(np.swapaxes(patch_major, -1, -2))
        out = head_linear(transpose(Tensor(class_major)), w, b)
        p = {"w": w.data.astype(np.float64), "b": b.data.astype(np.float64)}
        for i in range(class_major.shape[0]):
            heads = [m.astype(np.float64) for m in class_major[i]]
            assert_rel_close(out.data[i], oracles.integrate_cross_maps(heads, p), dtype)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("kind", ["self", "cross"])
    def test_gradients_match_unfused_projection(self, dtype, bias, kind):
        maps, _, _ = self.operands(kind, dtype, bias)
        batch, _, rows, _, d_a = self.SHAPES[kind]
        upstream = np.random.default_rng(75).normal(size=(batch, rows, d_a))

        def grads(project):
            _, w, b = self.operands(kind, dtype, bias)
            stack = Tensor(maps, requires_grad=True)
            out = project(stack, w, b)
            tsum(mul(out, Tensor(upstream.astype(dtype)))).backward()
            return out.data, stack.grad, w.grad, b.grad

        fused, ref = grads(head_linear), grads(unfused_projection)
        for a, r in zip(fused[:3], ref[:3]):
            assert_rel_close(a, r, dtype)
        if bias:
            assert_rel_close(fused[3], ref[3], dtype)
        else:
            assert fused[3] is None and ref[3] is None

    def test_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(76)
        s0 = rng.uniform(size=(2, 2, 3, 4))
        w0 = rng.normal(size=(8, 3))
        b0 = rng.normal(size=3)
        up = Tensor(rng.normal(size=(2, 3, 3)))
        check_grad(lambda t: tsum(mul(head_linear(t, Tensor(w0), Tensor(b0)), up)), s0)
        check_grad(lambda t: tsum(mul(head_linear(Tensor(s0), t, Tensor(b0)), up)), w0)
        check_grad(lambda t: tsum(mul(head_linear(Tensor(s0), Tensor(w0), t), up)), b0)

    def test_shape_errors(self):
        stack = Tensor(np.zeros((2, 3, 4)))
        with pytest.raises(ShapeError, match="head_linear"):
            head_linear(Tensor(np.zeros((3, 4))), Tensor(np.zeros((4, 2))),
                        Tensor(np.zeros(2)))
        with pytest.raises(ShapeError, match="head_linear"):
            head_linear(stack, Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))
        with pytest.raises(ShapeError, match="bias"):
            head_linear(stack, Tensor(np.zeros((8, 2))), Tensor(np.zeros(3)))


def explicit_self_attention(q, k, v, heads, c, readers):
    """``self_attention`` as separate nodes that keep the whole map."""
    p = map_probs(_split_heads(q, heads), _split_heads(k, heads, keys=True), c)
    out = concat_heads(matmul(p, _split_heads(v, heads)))
    return [out] + [head_linear(p, w, b) for w, b in readers]


def blocked_self_attention(q, k, v, heads, c, readers):
    """``self_attention`` split into the same pieces with ``narrow``."""
    out = self_attention(q, k, v, heads, c, readers)
    pieces, start = [], 0
    for width in [q.shape[-1]] + [w.shape[1] for w, _ in readers]:
        pieces.append(narrow(out, -1, start, width))
        start += width
    return pieces


class TestSelfAttention:
    HEADS, N, D, D_A = 2, 10, 6, 3

    def operands(self, lead, readers, dtype, seed=90):
        rng = np.random.default_rng(seed)
        qkv = [rng.normal(size=lead + (self.N, self.D)).astype(dtype) for _ in range(3)]
        wb = [(rng.normal(size=(self.HEADS * self.N, self.D_A + j)).astype(dtype),
               rng.normal(size=self.D_A + j).astype(dtype)) for j in range(readers)]
        ups = [rng.normal(size=lead + (self.N, self.D)).astype(dtype)]
        ups += [rng.normal(size=lead + (self.N, w.shape[1])).astype(dtype) for w, _ in wb]
        return qkv, wb, ups

    def run(self, build, lead, readers, dtype):
        qkv, wb, ups = self.operands(lead, readers, dtype)
        inputs = [Tensor(a, requires_grad=True) for a in qkv]
        pairs = [(Tensor(w, requires_grad=True), Tensor(b, requires_grad=True))
                 for w, b in wb]
        pieces = build(*inputs, self.HEADS, 0.4, pairs)
        loss = None
        for piece, up in zip(pieces, ups):
            term = tsum(mul(piece, Tensor(up)))
            loss = term if loss is None else add(loss, term)
        loss.backward()
        leaves = inputs + [t for pair in pairs for t in pair]
        return [p.data for p in pieces], [t.grad for t in leaves]

    def set_blocks(self, monkeypatch, lead, dtype, block_rows, keep):
        """Forward blocks of ``block_rows`` rows (backward's are half that,
        unless it keeps the map's blocks)."""
        row_bytes = math.prod(lead) * self.HEADS * self.N * np.dtype(dtype).itemsize
        monkeypatch.setattr(tensor, "_ATTENTION_BLOCK_BYTES", block_rows * row_bytes + 7)
        monkeypatch.setattr(tensor, "_ATTENTION_KEEP_BYTES", 1 << 30 if keep else 0)

    @pytest.mark.parametrize("keep", [False, True])
    @pytest.mark.parametrize("block_rows", [3, 7])
    @pytest.mark.parametrize("readers", [0, 1, 2])
    @pytest.mark.parametrize("lead", [(), (2,), (2, 3)])
    def test_blocks_match_explicit_map(self, monkeypatch, lead, readers, block_rows, keep):
        # over 10 rows, 3-row blocks are three full ones and a ragged last
        # one, and 7-row blocks leave backward 3-row ones; with ``keep`` the
        # blocks are kept, else backward forms them again. The 2-D weights
        # broadcast over every leading (batch) axis.
        self.set_blocks(monkeypatch, lead, np.float64, block_rows, keep)
        values, grads = self.run(blocked_self_attention, lead, readers, np.float64)
        ref_values, ref_grads = self.run(explicit_self_attention, lead, readers, np.float64)
        assert len(grads) == 3 + 2 * readers
        for got, want in zip(values + grads, ref_values + ref_grads):
            assert_rel_close(got, want, np.float64)

    def test_one_block_matches_explicit_map(self):
        values, grads = self.run(blocked_self_attention, (2,), 2, np.float64)
        ref_values, ref_grads = self.run(explicit_self_attention, (2,), 2, np.float64)
        for got, want in zip(values + grads, ref_values + ref_grads):
            assert_rel_close(got, want, np.float64)

    @pytest.mark.parametrize("keep", [False, True])
    def test_float32_within_float32_tolerance_of_float64(self, monkeypatch, keep):
        self.set_blocks(monkeypatch, (2,), np.float32, 3, keep)
        values, grads = self.run(blocked_self_attention, (2,), 2, np.float32)
        self.set_blocks(monkeypatch, (2,), np.float64, 3, keep)
        ref_values, ref_grads = self.run(blocked_self_attention, (2,), 2, np.float64)
        for got, want in zip(values + grads, ref_values + ref_grads):
            assert got.dtype == np.float32
            assert_rel_close(got, want, np.float32)

    @pytest.mark.parametrize("keep", [False, True])
    def test_gradients_vs_finite_differences(self, monkeypatch, keep):
        # 2-row blocks over 3 rows, formed again in 1-row blocks
        monkeypatch.setattr(tensor, "_ATTENTION_BLOCK_BYTES", 2 * 2 * 2 * 3 * 8)
        monkeypatch.setattr(tensor, "_ATTENTION_KEEP_BYTES", 1 << 30 if keep else 0)
        rng = np.random.default_rng(91)
        q0, k0, v0 = rng.normal(size=(3, 2, 3, 4))
        w0, b0 = rng.normal(size=(6, 2)), rng.normal(size=2)
        up = Tensor(rng.normal(size=(2, 3, 6)))

        def loss(q=q0, k=k0, v=v0, w=w0, b=b0):
            args = [x if isinstance(x, Tensor) else Tensor(x) for x in (q, k, v, w, b)]
            out = self_attention(*args[:3], 2, 0.6, [(args[3], args[4])])
            return tsum(mul(out, up))

        for name, x0 in zip("qkvwb", (q0, k0, v0, w0, b0)):
            check_grad(lambda t: loss(**{name: t}), x0)

    def small_graph(self):
        q, k, v = (Tensor(np.ones((2, 50, 6)), requires_grad=True) for _ in range(3))
        w = Tensor(np.ones((100, 3)), requires_grad=True)
        out = self_attention(q, k, v, 2, 1.0, [(w, Tensor(np.zeros(3)))])
        assert out.shape == (2, 50, 9)
        return out

    def test_graph_keeps_no_map_above_the_keep_budget(self, monkeypatch):
        # the closure holds c * q, k, v, the weights and two numbers per map
        # row: nothing N x N
        monkeypatch.setattr(tensor, "_ATTENTION_KEEP_BYTES", 2 * 2 * 50 * 50 * 8 - 1)
        assert max(a.size for a in graph_arrays(self.small_graph())) < 50 * 50

    def test_graph_keeps_the_blocks_of_a_small_map(self, monkeypatch):
        monkeypatch.setattr(tensor, "_ATTENTION_BLOCK_BYTES", 2 * 2 * 50 * 8 * 20)
        monkeypatch.setattr(tensor, "_ATTENTION_KEEP_BYTES", 2 * 2 * 50 * 50 * 8)
        blocks = [a for a in graph_arrays(self.small_graph()) if a.shape[-2:] == (2, 50)]
        assert sorted(a.shape for a in blocks) == [(2, 10, 2, 50), (2, 20, 2, 50), (2, 20, 2, 50)]

    def test_empty_batch_gives_empty_result_and_grads(self):
        values, grads = self.run(blocked_self_attention, (0,), 2, np.float64)
        assert [v.shape for v in values] == [(0, self.N, self.D), (0, self.N, self.D_A),
                                             (0, self.N, self.D_A + 1)]
        assert [g.shape for g in grads[:3]] == [(0, self.N, self.D)] * 3
        for got, want in zip(grads, self.run(explicit_self_attention, (0,), 2, np.float64)[1]):
            np.testing.assert_array_equal(got, want)
        assert not any(g.any() for g in grads)

    def test_no_tokens_rejected(self):
        x = Tensor(np.zeros((2, 0, 4)))
        with pytest.raises(ShapeError, match="N = 0 tokens"):
            self_attention(x, x, x, 2, 1.0, [(Tensor(np.zeros((0, 3))), Tensor(np.zeros(3)))])

    def test_shape_errors(self):
        x = Tensor(np.zeros((2, 5, 4)))
        with pytest.raises(ShapeError, match="self_attention"):
            self_attention(x, Tensor(np.zeros((2, 4, 5))), x, 2, 1.0, [])
        with pytest.raises(ShapeError, match="self_attention"):
            self_attention(x, x, x, 3, 1.0, [])
        with pytest.raises(ShapeError, match="reader"):
            self_attention(x, x, x, 2, 1.0, [(Tensor(np.zeros((5, 3))), Tensor(np.zeros(3)))])
        with pytest.raises(ShapeError, match="reader"):
            self_attention(x, x, x, 2, 1.0, [(Tensor(np.zeros((10, 3))), Tensor(np.zeros(2)))])


class RecordingPool(ThreadPoolExecutor):
    """A pool that keeps every future it hands out; the ``fail_at``-th block
    submitted (counting from 1) raises."""

    def __init__(self, workers, fail_at=None):
        super().__init__(workers)
        self.futures, self.fail_at = [], fail_at

    def submit(self, fn, *args):
        def failing(*args):
            raise RuntimeError("block failed")

        fails = len(self.futures) + 1 == self.fail_at
        self.futures.append(super().submit(failing if fails else fn, *args))
        return self.futures[-1]


def fork_and_attend(q, k, v, conn):
    """In a forked child: a map of several blocks, sent back to the parent."""
    conn.send(self_attention(Tensor(q), Tensor(k), Tensor(v), 2, 0.4, []).data)


def use_pool(monkeypatch, pool, workers=None):
    """Run the row blocks on the calling thread and ``pool``: by default one
    worker more than its threads, and inline with ``workers`` = 1."""
    monkeypatch.setattr(cpus, "_pool", pool)
    monkeypatch.setattr(cpus, "_POOL_WORKERS", workers or pool._max_workers + 1)


class TestRowBlockPool:
    """The blocks of a map of more than one block run on the calling thread
    and a thread pool; one worker runs them inline, and the two give the same
    bits."""

    case = TestSelfAttention()

    def run_on(self, monkeypatch, pool, readers, keep, workers=None):
        use_pool(monkeypatch, pool, workers)
        # float32, 10 rows: forward blocks of 3, 3, 3 and 1 rows; backward's
        # are 1 row, or the kept 3-row blocks
        self.case.set_blocks(monkeypatch, (2,), np.float32, 3, keep)
        return self.case.run(blocked_self_attention, (2,), readers, np.float32)

    @pytest.mark.parametrize("keep", [False, True])
    @pytest.mark.parametrize("readers", [0, 1, 2])
    def test_pooled_blocks_match_inline_blocks(self, monkeypatch, readers, keep):
        switch = sys.getswitchinterval()
        with RecordingPool(1) as inline, RecordingPool(4) as pooled:
            values, grads = self.run_on(monkeypatch, inline, readers, keep, workers=1)
            assert not inline.futures
            assert len(grads) == 3 + 2 * readers
            sys.setswitchinterval(1e-6)
            try:
                for _ in range(20):
                    got_values, got_grads = self.run_on(monkeypatch, pooled, readers, keep)
                    for got, want in zip(got_values + got_grads, values + grads):
                        assert np.array_equal(got, want)
            finally:
                sys.setswitchinterval(switch)
            # 5 workers: the caller runs the first block of each group of 5
            assert len(pooled.futures) == 20 * (3 + (3 if keep else 8))

    @pytest.mark.parametrize("fail_at", [2, 6])
    def test_block_error_reaches_the_caller(self, monkeypatch, fail_at):
        # 3 workers: the forward's 4 blocks go out as groups of 3 and 1, so
        # the pool gets 2 of them, and the 6th block it gets is the
        # backward's 6th of 10
        with RecordingPool(1) as inline, RecordingPool(2, fail_at) as failing:
            want = self.run_on(monkeypatch, inline, 2, False, workers=1)
            with pytest.raises(RuntimeError, match="block failed"):
                self.run_on(monkeypatch, failing, 2, False)
            assert all(f.done() for f in failing.futures)  # none still running
            failing.fail_at = None
            got = self.run_on(monkeypatch, failing, 2, False)
        for a, b in zip(got[0] + got[1], want[0] + want[1]):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("block_bytes, ahead", [(8 << 20, 2), (3 << 20, 2), (2 << 20, 4),
                                                    (1 << 10, 17)])
    def test_blocks_in_flight_bounded_by_bytes(self, monkeypatch, block_bytes, ahead):
        # 17 workers (the caller and 16 pool threads), blocks of 1 KiB to 8 MiB
        # against 8 MiB in flight
        monkeypatch.setattr(cpus, "_ATTENTION_THREAD_BYTES", 8 << 20)
        lock, running, most = threading.Lock(), [0], [0]

        def block(r):
            with lock:
                running[0] += 1
                most[0] = max(most[0], running[0])
            time.sleep(0.01)
            with lock:
                running[0] -= 1
            return r

        with RecordingPool(16) as pool:
            use_pool(monkeypatch, pool)
            assert list(cpus._in_order(block, range(24), block_bytes)) == list(range(24))
        assert 2 <= most[0] <= ahead

    @pytest.mark.parametrize("size, batch, bound", [(128, 4, 75), (256, 1, 80)])
    def test_step_peak_with_16_workers(self, monkeypatch, size, batch, bound):
        # the bounds of TestAttentionMemory, with a worker for each of 16 CPUs
        with ThreadPoolExecutor(15) as pool:
            use_pool(monkeypatch, pool)
            assert desk_step_peak(size, batch) < bound * 2**20

    def test_one_block_map_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(cpus, "_pool", None)
        threads = threading.active_count()
        values, _ = self.case.run(blocked_self_attention, (2,), 2, np.float32)
        assert values[0].shape == (2, self.case.N, self.case.D)
        assert threading.active_count() == threads
        assert cpus._pool is None

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")  # fork of a threaded process
    def test_forked_child_makes_its_own_pool(self, monkeypatch):
        # the child inherits the parent's pool object but none of its worker
        # threads: a block submitted to it would never run
        rng = np.random.default_rng(92)
        q, k, v = rng.normal(size=(3, 2, 10, 4)).astype(np.float32)
        with RecordingPool(2) as pool:
            use_pool(monkeypatch, pool)
            monkeypatch.setattr(tensor, "_ATTENTION_BLOCK_BYTES", 2 * 2 * 10 * 4 * 3)
            want = self_attention(Tensor(q), Tensor(k), Tensor(v), 2, 0.4, []).data
            assert pool.futures
            ctx = multiprocessing.get_context("fork")
            receive, send = ctx.Pipe(duplex=False)
            child = ctx.Process(target=fork_and_attend, args=(q, k, v, send))
            child.start()
            try:
                assert receive.poll(30), "the forked child's map never finished"
                assert np.array_equal(receive.recv(), want)
            finally:
                child.join(10)
                if child.is_alive():
                    child.kill()
                    child.join(10)
        assert child.exitcode == 0


def parent_softmax_grad(g: np.ndarray, p: np.ndarray, axis: int) -> np.ndarray:
    """The out-of-place softmax backward: (g - sum(g * p, axis)) * p."""
    return (g - (g * p).sum(axis=axis, keepdims=True)) * p


def probs(kind: str, x: Tensor, axis: int) -> Tensor:
    """A softmax of ``x`` along ``axis``, as ``softmax`` or as the cross maps
    form it (x @ I with c = 1 has the same logits)."""
    if kind == "softmax":
        return softmax(x, axis)
    return map_probs(x, Tensor(np.eye(x.shape[-1])), 1.0, axis)


class TestInPlaceBackward:
    """The softmax backward overwrites the grad it receives, and in a cross
    map the scale backward overwrites the one the product hands it. That
    grad must be its own node's, whatever the consumers of the output did
    with it."""

    @pytest.mark.parametrize("kind", ["softmax", "cross_map"])
    @pytest.mark.parametrize("axis", [-1, -2])
    def test_output_with_several_consumers(self, kind, axis):
        rng = np.random.default_rng(77)
        x0 = rng.normal(size=(2, 4, 4))
        w1 = rng.normal(size=(2, 4, 4))
        m = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w2 = rng.normal(size=(2, 4, 3))
        x = Tensor(x0, requires_grad=True)
        s = probs(kind, x, axis)
        doubled = add(s, s)
        loss = add(tsum(mul(doubled, Tensor(w1))), tsum(mul(matmul(s, m), Tensor(w2))))
        loss.backward()
        g = 2.0 * w1 + w2 @ m.data.T
        np.testing.assert_allclose(x.grad, parent_softmax_grad(g, s.data, axis),
                                   rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(m.grad, np.einsum("bij,bik->jk", s.data, w2),
                                   rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("kind", ["softmax", "cross_map"])
    def test_sum_of_two_softmaxes(self, kind):
        # add hands one operand its own grad and the other a copy; if both
        # got the same array, the first backward would corrupt the second
        rng = np.random.default_rng(79)
        x0, y0, w0 = rng.normal(size=(3, 2, 4, 4))
        x, y = Tensor(x0, requires_grad=True), Tensor(y0, requires_grad=True)
        s, t = probs(kind, x, -1), probs(kind, y, -2)
        tsum(mul(add(s, t), Tensor(w0))).backward()
        np.testing.assert_allclose(x.grad, parent_softmax_grad(w0, s.data, -1),
                                   rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(y.grad, parent_softmax_grad(w0, t.data, -2),
                                   rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("kind", ["softmax", "cross_map"])
    @pytest.mark.parametrize("axis", [-1, -2])
    def test_non_contiguous_incoming_grad(self, kind, axis):
        # permute's backward hands its input a transposed view of its grad
        rng = np.random.default_rng(78)
        x0 = rng.normal(size=(2, 3, 5))
        w0 = rng.normal(size=(5, 2, 3))
        x = Tensor(x0, requires_grad=True)
        w = Tensor(w0, requires_grad=True)
        s = probs(kind, x, axis)
        tsum(mul(permute(s, (2, 0, 1)), w)).backward()
        g = w0.transpose(1, 2, 0)
        np.testing.assert_allclose(x.grad, parent_softmax_grad(g, s.data, axis),
                                   rtol=1e-12, atol=1e-14)
        # the other factor's grad is the untouched forward value
        np.testing.assert_array_equal(w.grad, s.data.transpose(2, 0, 1))


# ------------------------------------------------------------- whole model
#
# The unfused formulation, kept as the reference: logits from scale and
# matmul, a separate softmax per normalized axis, and every gate integrator
# applied to the head-concatenated maps.

def unfused_self_attention(self, tokens, readers=()):
    cfg = self.cfg
    q = scale(self.wq(tokens), 1.0 / math.sqrt(cfg.head_dim))
    logits = matmul(_split_heads(q, cfg.heads),
                    _split_heads(self.wk(tokens), cfg.heads, keys=True))
    att = softmax(logits, axis=-1)
    mixed = matmul(att, _split_heads(self.wv(tokens), cfg.heads))
    return self.wo(concat_heads(mixed)), AttentionBundle(att, softmax_axis=1,
                                                         kind=SELF_KIND)


def unfused_cross_attention(self, queries, memory, gate_softmax=False):
    cfg = self.cfg
    q = scale(self.wq(queries), 1.0 / math.sqrt(cfg.head_dim))
    logits = matmul(_split_heads(q, cfg.heads),
                    _split_heads(self.wk(memory), cfg.heads, keys=True))
    att = softmax(logits, axis=-1)
    mixed = matmul(att, _split_heads(self.wv(memory), cfg.heads))
    out = self.wo(concat_heads(mixed))
    gated = None
    if gate_softmax:
        gated = AttentionBundle(softmax(logits, axis=-2), softmax_axis=0,
                                kind=CROSS_GATED_KIND)
    return out, AttentionBundle(att, softmax_axis=1, kind=CROSS_KIND), gated


def unfused_integrate_self(self, bundles):
    start = len(self.integrators) - len(bundles)
    target = bundles[0].grid
    total = None
    for i, bundle in enumerate(bundles):
        proj = self.integrators[start + i](concat_heads(bundle.stacked))
        if target is not None and bundle.grid not in (None, target):
            proj = upsample_bilinear(proj, bundle.grid, target)
        total = proj if total is None else total + proj
    return total


def unfused_integrate_cross(self, bundle):
    t = permute(bundle.stacked, (2, 0, 1))
    return self.integrators[0](reshape(t, t.shape[:-2] + (t.shape[-2] * t.shape[-1],)))


def loss_and_grads(model, images, labels):
    for p in model.parameters():
        p.grad = None
    scores = model(Tensor(images)).scores
    cross_entropy(scores, labels).backward()
    return scores.data, {name: p.grad for name, p in model.named_parameters()}


class TestSameFunction:
    @pytest.mark.parametrize("size", [64, 128])
    @pytest.mark.parametrize("variant", ["tsg", "tsg_shared", "tsge_only", "tsgd_only"])
    def test_scores_and_gradients_match_unfused_model(self, monkeypatch, size, variant):
        cfg = resolve_config("desk", {"height": size, "width": size, **VARIANTS[variant]})
        model = build_model(cfg, seed=5)
        rng = np.random.default_rng(79)
        helpers.randomize_gate_mlps(model, rng)
        for name, p in model.named_parameters():
            if name.endswith("queries"):
                p.data = 0.3 * rng.standard_normal(p.shape)
        images = rng.uniform(size=(2, size, size, 3))
        grid = size // cfg.patch_size
        labels = rng.integers(0, cfg.num_classes, size=(2, grid * grid))

        scores, grads = loss_and_grads(model, images, labels)
        with monkeypatch.context() as m:
            m.setattr(MultiheadSelfAttention, "__call__", unfused_self_attention)
            m.setattr(MultiheadCrossAttention, "__call__", unfused_cross_attention)
            m.setattr(TsgHead, "integrate_self", unfused_integrate_self)
            m.setattr(TsgHead, "integrate_cross", unfused_integrate_cross)
            ref_scores, ref_grads = loss_and_grads(model, images, labels)

        assert scores.shape == (2, grid * grid, cfg.num_classes)
        np.testing.assert_allclose(scores, ref_scores, rtol=0,
                                   atol=1e-12 * max(1.0, np.abs(ref_scores).max()))
        largest = max(np.abs(g).max() for g in ref_grads.values())
        assert largest > 0
        for name, g in grads.items():
            np.testing.assert_allclose(g, ref_grads[name], rtol=0, atol=1e-12 * largest,
                                       err_msg=name)


def graph_arrays(root: Tensor) -> list[np.ndarray]:
    """Every array a recorded graph keeps alive: the arrays each node's
    backward closure captured, lists and tuples unpacked. Nodes hold no
    forward values."""
    arrays, seen, stack = [], set(), [root._node]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        values = [cell.cell_contents for cell in getattr(node.backward, "__closure__", None)
                  or ()]
        while values:
            value = values.pop()
            if isinstance(value, (list, tuple)):
                values.extend(value)
            elif isinstance(value, np.ndarray):
                arrays.append(value)
        stack.extend(node.inputs)
    return arrays


def owning_buffer(a: np.ndarray) -> np.ndarray:
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def desk_step_peak(size: int, batch: int) -> int:
    """The ``tracemalloc`` peak of one float32 desk forward and backward."""
    cfg = resolve_config("desk", {"height": size, "width": size, "precision": "single"})
    model = build_model(cfg, seed=0, dtype=np.float32)
    rng = np.random.default_rng(3)
    images = rng.uniform(size=(batch, size, size, 3)).astype(np.float32)
    labels = rng.integers(0, cfg.num_classes, size=(batch, (size // 4) ** 2))
    tracemalloc.start()
    try:
        cross_entropy(model(Tensor(images)).scores, labels).backward()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestAttentionMemory:
    def test_graph_holds_no_array_of_4_mib(self):
        # desk model at 128x128, batch 4: stage 1 has 2 heads over 32 x 32 =
        # 1024 tokens, so a whole stage-1 map would be a 32 MiB array; the
        # graph keeps the 2 MiB blocks of the 4 MiB stage-2 maps and no
        # larger array
        cfg = resolve_config("desk", {"height": 128, "width": 128, "precision": "single"})
        model = build_model(cfg, seed=0, dtype=np.float32)
        rng = np.random.default_rng(80)
        images = rng.uniform(size=(4, 128, 128, 3)).astype(np.float32)
        scores = model(Tensor(images)).scores
        loss = cross_entropy(scores, rng.integers(0, cfg.num_classes, size=scores.shape[:-1]))
        buffers = {id(b): b for b in map(owning_buffer, graph_arrays(loss))}
        assert buffers
        assert max(b.nbytes for b in buffers.values()) < 4 * 2**20

    def test_step_peak_at_128px(self):
        # float32 batch-4 forward and backward: 126.6 MiB when the graph held
        # every op's inputs, 95.8 MiB while it held each 32 MiB stage-1 map,
        # about 52 MiB with the maps formed in blocks of query rows
        assert desk_step_peak(128, 4) < 75 * 2**20

    def test_step_peak_at_256px_batch_1(self):
        # 314.8 MiB while the graph held each 4096 x 4096 stage-1 map (two
        # heads, 128 MiB), about 52 MiB with the maps formed in blocks
        assert desk_step_peak(256, 1) < 80 * 2**20


class TestBlockedAccumulation:
    """A second contribution to a product-shaped grad is added into the
    grad in place; the sum is bit for bit grad + x @ y."""

    # (4, 2, 1024, 1024) grads, taking g @ v^T from a matrix product,
    # g_heads @ w_heads^T from head_linear (the (B, 1, N, d) grad broadcast
    # over (H, d, K)), and a right operand's grad, which reads its left
    # operand transposed.
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("x_shape, x_t, y_shape, y_t", [
        ((4, 2, 1024, 16), False, (4, 2, 1024, 16), True),
        ((4, 1, 1024, 64), False, (2, 1024, 64), True),
        ((4, 2, 256, 1024), True, (4, 2, 256, 1024), False),
    ])
    def test_equals_grad_plus_product(self, dtype, x_shape, x_t, y_shape, y_t):
        rng = np.random.default_rng(81)
        x = rng.normal(size=x_shape).astype(dtype)
        y = rng.normal(size=y_shape).astype(dtype)
        x = np.swapaxes(x, -1, -2) if x_t else x
        y = np.swapaxes(y, -1, -2) if y_t else y
        shape = np.broadcast_shapes(x.shape[:-2], y.shape[:-2]) + (x.shape[-2], y.shape[-1])
        assert shape == (4, 2, 1024, 1024)
        node = _Node()
        node.grad = rng.normal(size=shape).astype(dtype)
        expected = x @ y
        expected += node.grad
        held = node.grad
        _accumulate_matmul(node, x, y, shape)
        assert node.grad is held
        np.testing.assert_array_equal(node.grad, expected)
