"""``predict_labels`` scores its chunks of ``images_per_forward`` images on
the calling thread and the CPU pool, keeps their labels in chunk order, and
gives the labels of one chunk after another on one thread. A chunk's
self-attention row blocks run inline on the chunk's thread: at 128 px a map
has several, and with two workers, one of them busy with the other chunk, a
row block queued on the pool would never run.

The pooled runs are made in a fresh interpreter under a timeout, so a
deadlock fails the test instead of hanging the suite."""

import json
import os
import pathlib
import subprocess
import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from tsgseg import cpus, tensor
from tsgseg.config import resolve_config
from tsgseg.model import build_model
from tsgseg.segbench import generate, sample_seed
from tsgseg.tensor import Tensor, no_grad
from tsgseg.train import EVAL_CHUNK, images_per_forward, predict_labels

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def desk_config(size: int, precision: str):
    return resolve_config("desk", {"height": size, "width": size, "precision": precision})


def desk_case(size: int, precision: str, count: int):
    """An untrained desk model and ``count`` generated images of ``size`` px."""
    cfg = desk_config(size, precision)
    return build_model(cfg, seed=0), [generate(sample_seed(3, i), cfg) for i in range(count)]


def test_labels_on_this_machine():
    # two full chunks and a partial one; with one CPU (``taskset -c 0``)
    # every chunk runs inline
    chunk = images_per_forward(desk_config(64, "single"))
    model, samples = desk_case(64, "single", 2 * chunk + 1)
    with no_grad():
        want = [np.argmax(model(Tensor(np.stack([s.image for s in samples[lo:lo + chunk]]),
                                       dtype=np.float32)).scores.data, axis=-1)
                for lo in range(0, len(samples), chunk)]
    np.testing.assert_array_equal(predict_labels(model, samples), np.concatenate(want))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the forward overflows
def test_scores_that_are_not_finite_raise():
    model, samples = desk_case(64, "single", 2 * EVAL_CHUNK)
    for p in model.parameters():
        p.data *= np.float32(1e30)
    with pytest.raises(FloatingPointError, match="class scores are not finite"):
        predict_labels(model, samples)


def test_more_workers_than_cpus_give_the_inline_labels(monkeypatch):
    # float32 32 px chunks of 8 have maps of one row block each, so no
    # chunk makes a nested call and this runs in-process: 4 workers (two
    # chunks in flight), threads switched often, and the upsampling weights
    # formed afresh by whichever chunk asks first
    model, samples = desk_case(32, "single", 4 * EVAL_CHUNK + 2)
    monkeypatch.setattr(cpus, "_POOL_WORKERS", 1)
    want = predict_labels(model, samples)
    switch = sys.getswitchinterval()
    with ThreadPoolExecutor(3) as pool:
        monkeypatch.setattr(cpus, "_pool", pool)
        monkeypatch.setattr(cpus, "_POOL_WORKERS", 4)
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                tensor._weight_pair.cache_clear()
                np.testing.assert_array_equal(predict_labels(model, samples), want)
        finally:
            sys.setswitchinterval(switch)


POOLED = textwrap.dedent("""
    import json, sys, threading
    import numpy as np
    from tsgseg import cpus
    from tsgseg.model import SegModel
    from tsgseg.train import images_per_forward, predict_labels
    from test_eval_pool import desk_case, desk_config

    size, precision = int(sys.argv[1]), sys.argv[2]
    chunk = images_per_forward(desk_config(size, precision))
    # one full chunk and one partial chunk
    model, samples = desk_case(size, precision, chunk + chunk // 2)
    cpus._POOL_WORKERS = 1
    inline = predict_labels(model, samples)

    threads, forward = [], SegModel.__call__

    def recorded(self, image, forced_gates=None):
        threads.append(threading.get_ident())
        return forward(self, image, forced_gates)

    SegModel.__call__ = recorded
    cpus._POOL_WORKERS = 2  # the caller and a pool of one thread
    pooled = predict_labels(model, samples)
    print(json.dumps({"equal": bool(np.array_equal(pooled, inline)), "chunk": chunk,
                      "chunks": len(threads), "threads": len(set(threads)),
                      "pool": cpus._pool._max_workers}))
""")


@pytest.mark.parametrize("precision", ["single", "double"])
@pytest.mark.parametrize("size", [64, 128])
def test_two_workers_give_the_inline_labels(size, precision):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.path.dirname(__file__)]))
    proc = subprocess.run([sys.executable, "-c", POOLED, str(size), precision], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # 8 float32 64 px images per full forward, and 4 otherwise
    chunk = 8 if (size, precision) == (64, "single") else EVAL_CHUNK
    assert json.loads(proc.stdout) == {"equal": True, "chunk": chunk, "chunks": 2,
                                       "threads": 2, "pool": 1}
