"""How tsgseg uses the CPUs. ``tsgseg`` imports this module first, and it
imports no numpy, so its BLAS thread defaults and allocator policy are set
before numpy loads BLAS and allocates.

Threads: the row blocks of a self-attention map of more than one block run
on a pool with one thread per CPU the process may run on, made by the first
such map; nothing sets another count. The blocks in flight at once hold at
most about ``_ATTENTION_THREAD_BYTES`` between them, so a step's memory does
not grow with the number of CPUs. A forward block writes only its own
rows of the output; a backward block writes its own rows of q's grad and
returns its terms of the k, v and integrator-weight grads, which the calling
thread adds in block order, so a result has the same bits on any number of
CPUs. Pool threads run numpy only: every op, node and grad is made and
touched on the calling thread.
"""

import ctypes
import os
import sys
import threading

# The pool runs self-attention's row blocks on a thread per CPU, so each
# BLAS call keeps to its calling thread unless the environment asks for more.
# BLAS reads these when numpy is first imported: a program that imports
# numpy before tsgseg keeps its own setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# glibc's malloc maps every block above its mmap threshold on its own and
# unmaps it on free, and gives the heap top back to the kernel above its trim
# threshold; both thresholds move with what the process frees. Since
# ``backward`` frees each graph as it goes, the next op would fault the same
# pages back in. Fixed thresholds keep freed activations in the heap for
# reuse. Setting either threshold also stops glibc from moving the other,
# so the mmap threshold is set too: with the trim threshold alone it stays
# at 128 KiB, and 12 calls of a 2-step 128x128 batch-4 ``train_run`` in one
# process took about 180k minor faults per call. No graph array of such a
# step reaches 4 MiB (``self_attention`` forms the stage-1 maps in blocks of
# rows), so 4 and 64 MiB measured alike there: peaks of 119.7 and 119.5 MB
# of resident memory, medians of 6 and 5 faults per call after the first
# two; 64 MiB is kept. A 128x128 batch-4 step frees more than 64 MiB at the
# heap top at once, so the trim threshold is 128 MiB: at 32 or 64 MiB every
# such step gave its activations back and faulted them in again. That holds
# only while nothing else churns the heap, which is why AdamW keeps its
# state in flat buffers allocated once. The arena count is 1: glibc gives a
# thread that allocates while another holds the main heap's lock an arena
# of its own, and under these thresholds each arena keeps what it frees, so
# the threads ``self_attention`` runs row blocks on each kept their own
# blocks' worth of memory: on 2 CPUs, loops of 2-step 128x128 batch-4
# ``train_run`` calls peaked at 154.1 and 155.2 MB of resident memory with
# an arena per thread, and at 135.7 and 136.6 MB with one.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8  # mallopt, malloc.h
MALLOPT_SETTINGS = ((_M_MMAP_THRESHOLD, 64 << 20), (_M_TRIM_THRESHOLD, 128 << 20),
                    (_M_ARENA_MAX, 1))


def _set_allocator_policy(libc=None) -> bool:
    """Apply ``MALLOPT_SETTINGS`` through glibc's ``mallopt``; True when every
    call succeeded. Without glibc (not Linux, or a C library that lacks
    ``gnu_get_libc_version`` or ``mallopt``) nothing is set and nothing is
    raised."""
    if libc is None:
        if not sys.platform.startswith("linux"):
            return False
        try:
            libc = ctypes.CDLL(None)
        except OSError:
            return False
    if not (hasattr(libc, "gnu_get_libc_version") and hasattr(libc, "mallopt")):
        return False
    mallopt = libc.mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return all([mallopt(param, value) == 1 for param, value in MALLOPT_SETTINGS])


ALLOCATOR_POLICY_SET = _set_allocator_policy()

# The blocks running at once on the pool hold at most about this many bytes
# of temporaries between them, whatever the number of CPUs (at least two
# blocks).
_ATTENTION_THREAD_BYTES = 16 << 20

# The pool: one worker per CPU the process may run on, made under the lock
# by the first map of more than one block, and never on one CPU. A forked
# child makes its own, as the parent's worker threads are not in it.
_POOL_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count() or 1)
_pool, _pool_lock = None, threading.Lock()


def _forget_pool() -> None:
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _in_order(block, starts: range, block_bytes: int):
    """Yield ``block(r)`` for each ``r`` of ``starts``, in order.

    One block, or one worker, runs inline on the calling thread. Otherwise
    the blocks run on the pool, with as many submitted and not yet yielded
    as the workers + 1 and ``_ATTENTION_THREAD_BYTES`` allow, ``block_bytes``
    being a running block's temporaries, and never fewer than two. An error
    raised in a block reaches the caller once no other block of the call is
    still running.
    """
    global _pool
    if len(starts) < 2 or _POOL_WORKERS < 2:
        yield from map(block, starts)
        return
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(_POOL_WORKERS, thread_name_prefix="tsgseg-rows")
    pool, pending = _pool, []
    ahead = min(_POOL_WORKERS + 1, max(2, _ATTENTION_THREAD_BYTES // block_bytes))
    try:
        for r in starts:
            pending.append(pool.submit(block, r))
            if len(pending) >= ahead:
                yield pending.pop(0).result()
        while pending:
            yield pending.pop(0).result()
    finally:
        for future in pending:
            if not future.cancel():
                future.exception()  # waits for the running block
