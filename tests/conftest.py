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
from repro.graphs import HNSW, native
from repro.graphs.adjacency import AdjacencyStore
from repro.graphs.csr import CSRGraphView
from repro.utils import parallel

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


#: Suites whose contract is bit-identity on *one* executor — the engine's
#: block against the sequential search, the frozen CSR against the dynamic
#: store.  A frozen graph would put one side of each comparison on the
#: native executor (same ids, hops and NDC, distances an ulp apart), so these
#: files run with it switched off; native ≡ reference is ``test_native.py``'s
#: subject.
REFERENCE_SUITES = ("test_batch_search.py", "test_csr_parallel.py")


@contextlib.contextmanager
def reference_executor():
    """Run the body on the reference executor."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "_LIB", None)
        yield


@contextlib.contextmanager
def thread_budget(n_threads):
    """Run the body with a thread pool of ``n_threads`` (1 = no pool), then
    put the process's own pool and budget back."""
    saved = parallel._POOL, parallel._THREADS
    parallel._POOL, parallel._THREADS = None, n_threads
    try:
        yield
    finally:
        pool = parallel._POOL
        parallel._POOL, parallel._THREADS = saved
        if pool is not None:
            pool.shutdown()


@pytest.fixture(autouse=True, scope="module")
def _reference_suites(request):
    if request.path.name not in REFERENCE_SUITES:
        yield
        return
    with reference_executor():
        yield


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


def _near_tie(x: float, y: float) -> bool:
    """Within 4 float32 ulp of each other."""
    return abs(x - y) <= 4.0 * float(np.spacing(np.float32(max(abs(x), abs(y)))))


def tie_tolerant_equal(result_a, result_b, dc, q, ndc=None) -> bool:
    """Whether two executors' results for one search are the same search.

    The native/reference contract: identical ``degraded``, ``n_hops``,
    ``frontier_peak`` (and NDC, when the caller passes ``ndc=(a, b)``, and
    the scored set, when both results collected it), identical ids, and
    distances within 1e-6 of each other — float32 reductions in a C loop and
    in NumPy round differently.  One thing may differ: two candidates whose
    *reference* distances to ``q`` (``dc.to_query``) are within 4 float32
    ulp may swap places, and a search that had scored such a pair *before
    its scoring order left the other's* may then have taken a different
    number of hops.  Nothing else may.
    """
    if result_a.degraded != result_b.degraded:
        return False
    ids_a, ids_b = np.asarray(result_a.ids), np.asarray(result_b.ids)
    if ids_a.shape != ids_b.shape:
        return False
    if not np.allclose(result_a.distances, result_b.distances,
                       rtol=1e-6, atol=1e-6):
        return False

    def reference(ids):
        saved = dc.ndc
        out = np.asarray(dc.to_query(np.asarray(ids, dtype=np.int64), q),
                         dtype=np.float64)
        dc.ndc = saved
        return out

    differ = np.flatnonzero(ids_a != ids_b)
    if differ.size:
        d_a, d_b = reference(ids_a[differ]), reference(ids_b[differ])
        if not all(_near_tie(x, y) for x, y in zip(d_a, d_b)):
            return False
    counters_equal = (
        result_a.n_hops == result_b.n_hops
        and result_a.frontier_peak == result_b.frontier_peak
        and (ndc is None or ndc[0] == ndc[1]))
    scored_a, scored_b = result_a.visited_ids, result_b.visited_ids
    if scored_a is not None and scored_b is not None:
        counters_equal = counters_equal and np.array_equal(
            np.sort(scored_a), np.sort(scored_b))
    if counters_equal:
        return True
    # The traversals diverged: legitimate only at a near-tie, and a flipped
    # decision (which of two candidates pops first, a candidate against the
    # bound) compares two nodes both executors had already scored.  So the
    # pair must sit in what was scored before the scoring orders part ways —
    # the longest prefix over which they cover the same nodes — not anywhere
    # among what either search went on to score.
    if scored_a is None or scored_b is None:
        return False
    shared = max(i for i in range(min(scored_a.size, scored_b.size) + 1)
                 if np.array_equal(np.sort(scored_a[:i]),
                                   np.sort(scored_b[:i])))
    d = np.sort(reference(np.unique(scored_a[:shared])))
    return any(_near_tie(x, y) for x, y in zip(d[:-1], d[1:]))


def csr_view(lists) -> CSRGraphView:
    """A frozen CSR over out-neighbour ``lists`` as given: self-loops and
    duplicate edges kept."""
    indptr = np.zeros(len(lists) + 1, dtype=np.int32)
    np.cumsum([len(row) for row in lists], out=indptr[1:])
    indices = np.fromiter((v for row in lists for v in row), dtype=np.int32,
                          count=int(indptr[-1]))
    return CSRGraphView(indptr, indices, np.full(indices.shape[0], np.nan))


def store_of(view: CSRGraphView, n: int) -> AdjacencyStore:
    """The view's graph as a live store (self-loops dropped, every third
    node's tail kept as extra edges), grown node by node so the slab has
    been regrown along the way."""
    store = AdjacencyStore(1)
    store.grow(n - 1)
    for u in range(n):
        row = [v for v in view.neighbors(u).tolist() if v != u]
        cut = len(row) // 2 if u % 3 == 0 else len(row)
        store.set_base_neighbors(u, row[:cut])
        for v in row[cut:]:
            store.add_extra_edge(u, v, 1.0)
    return store

#: A non-default value for every ``StoreConfig`` field (the round-trip
#: suites in ``test_durability.py`` and ``test_cluster.py`` parametrize over
#: ``dataclasses.fields(StoreConfig)`` and look values up here, so a field
#: added without an entry — or without codec support — fails by
#: construction).  ``dim`` has no default; it differs from the suites'
#: usual 8 only to show it is carried.
NONDEFAULT_STORE_SETTINGS = dict(
    dim=12, metric="l2", M=6, ef_construction=30, seed=9,
    scheduler_mode="thread", merge_every=17, sync_every=3,
    checkpoint_every=5, compressed=True, pq_m=2, pq_ks=16, rerank=20,
    beam_width=2,
    fix_config={"k": 5, "max_extra_degree": 3, "rounds": [5, 3]})

#: A fitted per-hardness-bin table in the form earlier versions wrote into
#: ``store-config.json`` and worker specs (the removed query planner's
#: artifact).  Today's codec ignores it; the compatibility tests carry it.
OLD_TUNED_TABLE = {
    "k": 5, "target_recall": 0.9, "edges": [0.5],
    "bins": [{"ef": 20, "route": "default", "beam_width": None,
              "rerank": None},
             {"ef": 40, "route": "exact", "beam_width": 1, "rerank": None}],
    "landmarks": [[0.25] * 8], "default_ef": 30, "score_shift": 0.6,
    "metric": "cosine", "meta": {"n_calibration_queries": 40}}


def store_settings_with(field: str) -> dict:
    """Constructor keywords for a dim-8 store whose ``field`` is set to its
    non-default value."""
    return {"dim": 8, field: NONDEFAULT_STORE_SETTINGS[field]}
