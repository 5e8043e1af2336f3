"""The process's one thread pool for data-parallel work.

Everything that uses more than one core — a served batch's engine blocks,
ground-truth blocks — maps a function over coarse items with
:func:`parallel_map`.  The items run on a persistent, process-wide thread
pool with one thread per CPU the process may run on
(``os.sched_getaffinity``), created on first use.  The work that pays for
threads releases the GIL for its bulk: the native traversal for a whole
block, NumPy for a matrix product.

Determinism contract: :func:`parallel_map` returns results in input order,
and every item is processed by a function of that item alone, so a pooled
run equals the serial one.  Callers that need aligned numerics (batched
GEMM ground truth) cut their items on the same boundaries at any budget —
:func:`chunk_bounds` is the shared splitter.

The items run in order on the calling thread instead when the process may
use one CPU, when there is one item, when the caller is itself a pool
thread (a pool thread that waits on its own pool can deadlock), and in a
forked child — a shard worker, whose parent already runs one process per
core.  An at-fork hook drops the parent's pool in the child, where its
threads did not survive the fork.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

# Sized on first use, created by the first map of more than one item, kept
# for the life of the process.
_POOL: ThreadPoolExecutor | None = None
_THREADS: int | None = None  # the thread budget; None = not sized yet
_POOL_LOCK = threading.Lock()
_LOCAL = threading.local()  # ``in_pool`` is set on the pool's own threads


def _mark_pool_thread() -> None:
    _LOCAL.in_pool = True


def _pool() -> ThreadPoolExecutor | None:
    """The process's pool, or None when items run on the caller."""
    global _POOL, _THREADS
    pool = _POOL
    if pool is not None:
        return pool
    with _POOL_LOCK:
        if _THREADS is None:
            _THREADS = (len(os.sched_getaffinity(0))
                        if hasattr(os, "sched_getaffinity")
                        else os.cpu_count() or 1)
        if _POOL is None and _THREADS > 1:
            _POOL = ThreadPoolExecutor(_THREADS,
                                       thread_name_prefix="repro-pool",
                                       initializer=_mark_pool_thread)
        return _POOL


def _after_fork_in_child() -> None:
    """A forked child runs on one thread: drop the parent's pool (its
    threads did not survive the fork) and set the budget to one."""
    global _POOL, _THREADS, _POOL_LOCK
    _POOL, _THREADS, _POOL_LOCK = None, 1, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


def chunk_bounds(n_items: int, chunk_size: int) -> list[tuple[int, int]]:
    """Deterministic ``[start, stop)`` chunk boundaries covering ``n_items``.

    The same boundaries must be used at every thread budget so per-chunk
    numerics (batched GEMMs) agree bitwise.
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    return [(start, min(start + chunk_size, n_items))
            for start in range(0, n_items, chunk_size)]


def parallel_map(fn, items) -> list:
    """``[fn(x) for x in items]``, one item per task on the process's pool.

    Results come back in input order.  Every item settles before the first
    failure, in input order, is raised, so no task is still running when
    the caller sees the error.  Runs serially on the calling thread in the
    cases the module docstring lists.  ``fn`` runs concurrently with itself:
    it must write only what its own item owns.
    """
    items = list(items)
    pool = (_pool() if len(items) > 1 and not getattr(_LOCAL, "in_pool", False)
            else None)
    if pool is None:
        return [fn(item) for item in items]
    futures = [pool.submit(fn, item) for item in items]
    wait(futures)
    return [future.result() for future in futures]
