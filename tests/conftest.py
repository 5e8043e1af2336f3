"""Shared fixtures: a small cross-modal workload and prebuilt indexes.

Session-scoped fixtures amortize index construction across the suite; tests
that mutate a graph must take a fresh copy (see ``fresh_hnsw``).
"""

from __future__ import annotations

import contextlib
import signal

import numpy as np
import pytest

from repro.datasets import CrossModalConfig, make_cross_modal_dataset
from repro.evalx import compute_ground_truth
from repro.graphs import HNSW
from repro.graphs import search as search_module

try:
    import pytest_timeout  # noqa: F401
    _HAVE_PYTEST_TIMEOUT = True
except ImportError:
    _HAVE_PYTEST_TIMEOUT = False


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """SIGALRM fallback for ``@pytest.mark.timeout`` sans pytest-timeout.

    Maintenance/serving tests mark a timeout so a stuck background merge or
    a deadlocked scheduler fails fast instead of hanging the whole suite.
    When pytest-timeout is installed (CI) it handles the mark natively; this
    fallback covers environments without it, using the interruptible-ish
    SIGALRM mechanism (main thread, POSIX only — a no-op elsewhere).
    """
    marker = item.get_closest_marker("timeout")
    if (_HAVE_PYTEST_TIMEOUT or marker is None
            or not hasattr(signal, "SIGALRM")):
        yield
        return
    seconds = float(marker.args[0]) if marker.args else 60.0

    def on_alarm(signum, frame):
        raise TimeoutError(
            f"test exceeded its {seconds:g}s timeout mark")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


TINY = CrossModalConfig(
    n_base=400, n_train=80, n_test=40, dim=16, n_clusters=8,
    cluster_std=0.15, gap_scale=0.9, query_spread=0.4, n_facets=2,
    metric="cosine", n_id_queries=20, seed=7,
)


@pytest.fixture(scope="session")
def tiny_ds():
    """A 400-point cross-modal dataset with OOD queries."""
    return make_cross_modal_dataset("tiny", TINY)


@pytest.fixture(scope="session")
def tiny_gt(tiny_ds):
    """Exact top-30 ground truth for the tiny dataset's test queries."""
    return compute_ground_truth(tiny_ds.base, tiny_ds.test_queries, 30, tiny_ds.metric)


@pytest.fixture(scope="session")
def tiny_train_gt(tiny_ds):
    """Exact top-30 ground truth for the tiny dataset's train queries."""
    return compute_ground_truth(tiny_ds.base, tiny_ds.train_queries, 30, tiny_ds.metric)


@pytest.fixture(scope="session")
def shared_hnsw(tiny_ds):
    """Read-only single-layer HNSW over the tiny dataset.

    Tests must NOT mutate this index; use ``fresh_hnsw`` for that.
    """
    return HNSW(tiny_ds.base, tiny_ds.metric, M=8, ef_construction=40,
                single_layer=True, seed=3)


@pytest.fixture
def fresh_hnsw(tiny_ds):
    """A freshly built HNSW safe to mutate (NGFix/RFix/maintenance tests)."""
    return HNSW(tiny_ds.base, tiny_ds.metric, M=8, ef_construction=40,
                single_layer=True, seed=3)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@contextlib.contextmanager
def _lockstep_engine():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search_module, "LOCKSTEP_MIN_ROWS", 0)
        yield


@pytest.fixture(scope="session")
def lockstep_engine():
    """Context manager: every engine block runs the lock-step rounds.

    ``BatchSearchEngine`` routes blocks under ``LOCKSTEP_MIN_ROWS`` to the
    sequential loop, so an engine-vs-sequential comparison on a small block
    would compare that loop with itself.  Tests whose subject is the
    lock-step code wrap their batched calls in this (session-scoped so
    hypothesis tests can take it; ``lockstep_only`` is the fixture form).
    """
    return _lockstep_engine


@pytest.fixture
def lockstep_only():
    """The whole test runs with ``lockstep_engine`` in force."""
    with _lockstep_engine():
        yield
