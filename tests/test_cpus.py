"""The CPU policy ``cpus`` sets when ``tsgseg`` is imported, before numpy
loads: one BLAS thread per calling thread unless the environment names a
count; glibc's mmap and trim thresholds fixed, so activations freed between
ops and steps are reused instead of being faulted back in, and one allocator
arena, so the threads self-attention runs its row blocks on reuse that
memory too; and how ``_in_order`` runs blocks: on the calling thread
and a pool of one thread fewer than the CPUs, with a call inside a block
run inline."""

import json
import os
import pathlib
import platform
import resource
import subprocess
import sys
import textwrap
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from tsgseg import cpus
from tsgseg.config import resolve_config
from tsgseg.cpus import _set_allocator_policy
from tsgseg.model import build_model
from tsgseg.tensor import Tensor, no_grad

GLIBC = sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc"
# (param, value) pairs from malloc.h: M_MMAP_THRESHOLD = -3, M_TRIM_THRESHOLD = -1,
# M_ARENA_MAX = -8
DOCUMENTED = {(-3, 64 << 20), (-1, 128 << 20), (-8, 1)}
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


class StandInLibc:
    """A C library exposing only ``symbols``; ``mallopt`` records its calls."""

    def __init__(self, *symbols, result=1):
        self.calls = []
        self.result = result
        if "gnu_get_libc_version" in symbols:
            self.gnu_get_libc_version = lambda: b"2.36"
        if "mallopt" in symbols:
            def mallopt(param, value):
                self.calls.append((param, value))
                return self.result
            self.mallopt = mallopt


class TestPolicy:
    def test_glibc_receives_each_documented_setting_once(self):
        libc = StandInLibc("gnu_get_libc_version", "mallopt")
        assert _set_allocator_policy(libc) is True
        assert len(libc.calls) == len(DOCUMENTED)
        assert set(libc.calls) == DOCUMENTED

    def test_library_without_glibc_marker_is_left_alone(self):
        libc = StandInLibc("mallopt")
        assert _set_allocator_policy(libc) is False
        assert libc.calls == []

    def test_library_without_mallopt_is_left_alone(self):
        assert _set_allocator_policy(StandInLibc("gnu_get_libc_version")) is False

    def test_refused_setting_reported_not_raised(self):
        libc = StandInLibc("gnu_get_libc_version", "mallopt", result=0)
        assert _set_allocator_policy(libc) is False
        assert set(libc.calls) == DOCUMENTED

    def test_other_platforms_load_no_library(self, monkeypatch):
        def no_load(name):
            raise AssertionError("loaded a C library off Linux")

        monkeypatch.setattr(sys, "platform", "darwin")
        monkeypatch.setattr(cpus.ctypes, "CDLL", no_load)
        assert _set_allocator_policy() is False

    @pytest.mark.skipif(not GLIBC, reason="needs glibc")
    def test_set_at_import_under_glibc(self):
        assert cpus.ALLOCATOR_POLICY_SET is True


def test_policy_set_before_numpy_loads():
    # cpus imports no numpy and tsgseg imports it first, so when numpy is
    # first imported BLAS's thread defaults are in the environment and,
    # under glibc, the allocator policy is set
    script = textwrap.dedent("""
        import json, os, sys

        class AtNumpy:
            seen = None

            def find_spec(self, name, path=None, target=None):
                if name == "numpy" and AtNumpy.seen is None:
                    cpus, frame, importers = sys.modules.get("tsgseg.cpus"), sys._getframe(), []
                    while frame is not None:
                        importers.append(frame.f_globals.get("__name__"))
                        frame = frame.f_back
                    AtNumpy.seen = {
                        "blas": os.environ.get("OPENBLAS_NUM_THREADS"),
                        "policy": getattr(cpus, "ALLOCATOR_POLICY_SET", None),
                        "importers": importers,
                    }
                return None

        sys.meta_path.insert(0, AtNumpy())
        import tsgseg
        print(json.dumps(AtNumpy.seen))
    """)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert "tsgseg.cpus" not in seen["importers"]
    assert seen["blas"] == "1"
    assert seen["policy"] is GLIBC


class TestPool:
    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs sched_getaffinity")
    def test_one_worker_per_cpu_this_process_may_run_on(self):
        assert cpus._POOL_WORKERS == len(os.sched_getaffinity(0))

    def test_blocks_yielded_in_order_on_this_machine(self, monkeypatch):
        # with one CPU (``taskset -c 0``) the blocks run inline and no pool
        # is made; with more the calling thread runs some of them and a pool
        # of one thread fewer than the CPUs the rest
        monkeypatch.setattr(cpus, "_pool", None)
        threads = set()

        def block(r):
            threads.add(threading.get_ident())
            return r * r

        assert list(cpus._in_order(block, range(12), 1 << 10)) == [r * r for r in range(12)]
        assert threading.get_ident() in threads
        if cpus._POOL_WORKERS < 2:
            assert threads == {threading.get_ident()} and cpus._pool is None
        else:
            assert len(threads) > 1 and cpus._pool._max_workers == cpus._POOL_WORKERS - 1
            cpus._pool.shutdown()

    def test_call_inside_a_block_runs_inline(self, monkeypatch):
        # two workers, and idle pool threads to spare so that a nested call
        # that did submit would still finish; none may
        submitted_by = []

        class Pool(ThreadPoolExecutor):
            def submit(self, fn, *args):
                submitted_by.append(threading.get_ident())
                return super().submit(fn, *args)

        def outer(r):
            return r, threading.get_ident(), list(cpus._in_order(inner, range(3), 1 << 10))

        def inner(r):
            return threading.get_ident()

        with Pool(4) as pool:
            monkeypatch.setattr(cpus, "_pool", pool)
            monkeypatch.setattr(cpus, "_POOL_WORKERS", 2)
            got = list(cpus._in_order(outer, range(6), 1 << 10))
        assert [r for r, _, _ in got] == list(range(6))
        assert all(inner_threads == [thread] * 3 for _, thread, inner_threads in got)
        assert len({thread for _, thread, _ in got}) > 1
        assert submitted_by == [threading.get_ident()] * 3  # one per group of two
        # the mark goes with the block: a later call from the same thread pools
        assert not getattr(cpus._running, "block", False)

    def test_callers_error_waits_for_the_pools_block(self, monkeypatch):
        ended = threading.Event()

        def block(r):
            if r == 0:
                raise RuntimeError("first block failed")
            time.sleep(0.05)
            ended.set()
            return r

        with ThreadPoolExecutor(1) as pool:
            monkeypatch.setattr(cpus, "_pool", pool)
            monkeypatch.setattr(cpus, "_POOL_WORKERS", 2)
            with pytest.raises(RuntimeError, match="first block failed"):
                list(cpus._in_order(block, range(4), 1 << 10))
            assert ended.is_set()


@pytest.mark.skipif(not GLIBC, reason="needs glibc")
def test_no_grad_forwards_do_not_fault_their_memory_back_in():
    # Without the policy each forward unmaps or trims what the last one
    # freed and faults it back in: about 1.5k minor faults per forward.
    model = build_model(resolve_config("desk", {"precision": "single"}), seed=0)
    images = Tensor(np.random.default_rng(0).uniform(
        size=(4, model.cfg.height, model.cfg.width, 3)).astype(np.float32))
    forwards = 8
    with no_grad():
        model(images)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(forwards):
            model(images)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults / forwards < 200


@pytest.mark.skipif(not GLIBC, reason="needs glibc")
def test_training_steps_do_not_fault_their_memory_back_in():
    # A 128x128 batch-4 step frees more than 64 MiB at the top of the heap at
    # once; under a 32 MiB trim threshold glibc gave it back and the next
    # step faulted it in again, about 11-13k minor faults per step. The heap
    # still grows in the second step (about 9k faults), so two warm up. A
    # fresh interpreter, as a training run has.
    script = textwrap.dedent("""
        import resource
        import numpy as np
        from tsgseg.config import resolve_config
        from tsgseg.model import build_model
        from tsgseg.optim import AdamW
        from tsgseg.tensor import Tensor, cross_entropy
        cfg = resolve_config("desk", {"precision": "single", "height": 128, "width": 128})
        model = build_model(cfg, seed=0)
        opt = AdamW(model.named_parameters())
        rng = np.random.default_rng(0)
        images = Tensor(rng.uniform(size=(4, 128, 128, 3)).astype(np.float32))
        gh, gw = model.target_grid
        labels = rng.integers(0, cfg.num_classes, size=(4, gh * gw))
        for step in range(6):
            if step == 2:
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            loss = cross_entropy(model(images).scores, labels)
            loss.backward()
            opt.step(1e-3)
            opt.zero_grad()  # as train_run does: no gradient outlives its step
        print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 4)
    """)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 1000
