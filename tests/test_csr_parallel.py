"""Frozen-CSR search ≡ dynamic-store search, and pooled ≡ serial work.

Two equivalence contracts guard the perf layer:

1. Searching over a frozen :class:`CSRGraphView` returns bit-identical
   (ids, distances, NDC, hops) to searching the live ``AdjacencyStore`` —
   across graph classes, metrics, tombstones, and post-fix extra edges.
2. Work on the process's thread pool produces the same artifact at any
   thread budget — identical ground truth, graphs and NDC accounting — and
   builds whose candidate walks run natively equal the reference builds.
"""

import contextlib
import os
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import NSG, FixConfig, NGFixer, RoarGraph, TauMNG, VectorStore
from repro.distances import DistanceComputer, Metric
from repro.evalx import compute_ground_truth, evaluate_index
from repro.graphs import HNSW, Vamana, brute_force_knn_graph, native
from repro.graphs.adjacency import FREEZE_AFTER_READS, AdjacencyStore
from repro.graphs.search import BatchSearchEngine, VisitedTable, greedy_search
from repro.utils import parallel
from repro.utils.parallel import chunk_bounds, parallel_map
from tests.conftest import thread_budget

BUDGETS = (1, 2, 4)

# Captured at import, before this module's autouse fixture switches the
# native executor off (see ``REFERENCE_SUITES`` in conftest).
_NATIVE_LIB = native._LIB


@contextlib.contextmanager
def native_executor():
    """Run the body on the native executor when there is one (else on the
    reference executor this module runs on)."""
    with pytest.MonkeyPatch.context() as patch:
        if _NATIVE_LIB is not None:
            patch.setattr(native, "_LIB", _NATIVE_LIB)
        yield


@st.composite
def store_with_extras(draw):
    """Random store holding base edges plus EH-tagged extra edges."""
    n = draw(st.integers(8, 40))
    dim = draw(st.integers(2, 6))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, dim)).astype(np.float32)
    adjacency = AdjacencyStore(n)
    deg = draw(st.integers(1, 6))
    for u in range(n):
        for v in rng.choice(n, size=min(deg, n - 1), replace=False):
            if int(v) != u:
                adjacency.add_base_edge(u, int(v))
    for _ in range(draw(st.integers(0, 3 * n))):
        u, v = rng.integers(0, n, size=2)
        adjacency.add_extra_edge(int(u), int(v), float(rng.integers(1, 20)))
    metric = draw(st.sampled_from(list(Metric)))
    return data, adjacency, metric, seed


def _assert_same_results(a, b):
    np.testing.assert_array_equal(a.ids, b.ids)
    # Bit-level, not allclose: both paths share one distance kernel.
    np.testing.assert_array_equal(a.distances, b.distances)
    assert a.n_hops == b.n_hops


class TestCSRLayout:
    @settings(max_examples=40, deadline=None)
    @given(store_with_extras())
    def test_freeze_preserves_neighbor_order(self, world):
        _, adjacency, _, _ = world
        view = adjacency.freeze()
        for u in range(adjacency.n_nodes):
            np.testing.assert_array_equal(view.neighbors(u),
                                          adjacency.neighbors(u))
            np.testing.assert_array_equal(view(u), adjacency.neighbors(u))
            assert view.out_degree(u) == adjacency.out_degree(u)

    @settings(max_examples=20, deadline=None)
    @given(store_with_extras())
    def test_extra_edge_tags(self, world):
        _, adjacency, _, _ = world
        view = adjacency.freeze()
        assert int(view.extra_edge_mask().sum()) == adjacency.n_extra_edges()
        assert view.n_edges == (adjacency.n_base_edges()
                                + adjacency.n_extra_edges())
        assert view.nbytes() > 0


class TestFrozenSearchEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(store_with_extras(), st.integers(1, 6), st.integers(2, 24))
    def test_greedy_over_view_matches_dynamic(self, world, k, ef):
        data, adjacency, metric, seed = world
        dc = DistanceComputer(data, metric)
        view = adjacency.freeze()
        visited = VisitedTable(dc.size)
        queries = np.random.default_rng(seed + 2).standard_normal(
            (4, data.shape[1])).astype(np.float32)
        for q in queries:
            dc.reset_ndc()
            dyn = greedy_search(dc, adjacency.neighbors, [0], q, k=k, ef=ef,
                                visited=visited)
            ndc_dyn = dc.reset_ndc()
            frz = greedy_search(dc, view, [0], q, k=k, ef=ef, visited=visited)
            assert dc.reset_ndc() == ndc_dyn
            _assert_same_results(dyn, frz)

    @settings(max_examples=25, deadline=None)
    @given(store_with_extras(), st.integers(1, 5), st.integers(2, 16),
           st.integers(1, 7))
    def test_batch_engine_over_view_matches_dynamic(self, world, k, ef,
                                                    batch_size):
        data, adjacency, metric, seed = world
        n = data.shape[0]
        rng = np.random.default_rng(seed + 3)
        excluded = set(int(v) for v in
                       rng.choice(n, size=min(4, n - 1), replace=False))
        dc = DistanceComputer(data, metric)
        queries = rng.standard_normal((5, data.shape[1])).astype(np.float32)

        dyn_engine = BatchSearchEngine(dc, adjacency.neighbors,
                                       lambda q: [0],
                                       excluded_fn=lambda: excluded,
                                       batch_size=batch_size)
        view = adjacency.freeze()
        csr_engine = BatchSearchEngine(dc, adjacency.neighbors,
                                       lambda q: [0],
                                       excluded_fn=lambda: excluded,
                                       batch_size=batch_size,
                                       graph_fn=lambda: view)
        dc.reset_ndc()
        dyn = dyn_engine.search_batch(queries, k, ef)
        ndc_dyn = dc.reset_ndc()
        frz = csr_engine.search_batch(queries, k, ef)
        assert dc.reset_ndc() == ndc_dyn
        for a, b in zip(dyn, frz):
            _assert_same_results(a, b)

    @pytest.mark.parametrize("builder", ["hnsw", "nsg", "tau-mng",
                                         "roargraph", "vamana"])
    def test_all_graph_classes(self, tiny_ds, builder):
        """index.search over the frozen view ≡ the raw dynamic path."""
        if builder == "hnsw":
            index = HNSW(tiny_ds.base, tiny_ds.metric, M=8,
                         ef_construction=40, single_layer=True, seed=3)
        elif builder == "nsg":
            index = NSG(tiny_ds.base, tiny_ds.metric, R=12, L=24, knn_k=12)
        elif builder == "tau-mng":
            index = TauMNG(tiny_ds.base, tiny_ds.metric, R=12, L=24,
                           knn_k=12, tau=0.05)
        elif builder == "roargraph":
            index = RoarGraph(tiny_ds.base, tiny_ds.metric,
                              tiny_ds.train_queries, M=12,
                              n_query_neighbors=16, knn_k=8)
        else:
            index = Vamana(tiny_ds.base, tiny_ds.metric, R=12, L=24, seed=0)
        queries = tiny_ds.test_queries[:12]
        visited = VisitedTable(index.dc.size)
        refs = []
        index.dc.reset_ndc()
        for q in queries:  # raw dynamic path, bypassing the freeze policy
            qq = index.dc.prepare_query(q)
            refs.append(greedy_search(
                index.dc, index.adjacency.neighbors, index.entry_points(qq),
                qq, k=10, ef=40, visited=visited, prepared=True))
        ndc_ref = index.dc.reset_ndc()

        index.freeze()
        assert index.adjacency.csr_view() is not None
        frz = [index.search(q, k=10, ef=40) for q in queries]
        assert index.dc.reset_ndc() == ndc_ref
        for a, b in zip(refs, frz):
            _assert_same_results(a, b)

        bat = index.search_batch(queries, 10, 40, batch_size=5)
        assert index.dc.reset_ndc() == ndc_ref
        for a, b in zip(refs, bat):
            _assert_same_results(a, b)

    def test_post_fix_extras_and_tombstones(self, tiny_ds, fresh_hnsw, rng):
        """Fixed graph + tombstones: frozen path still matches the dynamic."""
        fixer = NGFixer(fresh_hnsw, FixConfig(k=5, max_extra_degree=6,
                                              preprocess="exact", rounds=(5,)))
        fixer.fit(tiny_ds.train_queries[:30])
        assert fixer.adjacency.n_extra_edges() > 0
        fixer.adjacency.tombstones.update(
            int(v) for v in rng.choice(tiny_ds.base.shape[0], size=10,
                                       replace=False))
        queries = tiny_ds.test_queries[:10]
        visited = VisitedTable(fixer.dc.size)
        refs = []
        fixer.dc.reset_ndc()
        for q in queries:
            qq = fixer.dc.prepare_query(q)
            refs.append(greedy_search(
                fixer.dc, fixer.adjacency.neighbors, [fixer.entry], qq,
                k=5, ef=25, visited=visited,
                excluded=fixer.adjacency.tombstones, prepared=True))
        ndc_ref = fixer.dc.reset_ndc()
        fixer.adjacency.freeze()
        frz = [fixer.search(q, k=5, ef=25) for q in queries]
        assert fixer.dc.reset_ndc() == ndc_ref
        for a, b in zip(refs, frz):
            _assert_same_results(a, b)
        for r in frz:  # tombstones really are excluded on the frozen path
            assert not set(r.ids.tolist()) & fixer.adjacency.tombstones


MUTATIONS = {
    "set_base": lambda a: a.set_base_neighbors(0, [1, 2]),
    "add_base": lambda a: a.add_base_edge(0, 5),
    "add_extra": lambda a: a.add_extra_edge(0, 6, 3.0),
    "remove_extra": lambda a: a.remove_extra_edge(1, 3),
    "evict": lambda a: a.evict_lowest_eh(1),
    "drop_fraction": lambda a: a.drop_extra_fraction(
        1.0, np.random.default_rng(0)),
    "remove_nodes": lambda a: a.remove_node_edges({3}),
    "grow": lambda a: a.grow(2),
}


class TestFreezeLifecycle:
    def _store(self):
        adjacency = AdjacencyStore(8)
        for u in range(8):
            adjacency.add_base_edge(u, (u + 1) % 8)
        adjacency.add_extra_edge(1, 3, 4.0)
        adjacency.add_extra_edge(1, 4, 2.0)
        return adjacency

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_every_mutation_dirties_the_view(self, name):
        adjacency = self._store()
        frozen = adjacency.freeze()
        assert adjacency.csr_view() is frozen
        version = adjacency.mutation_version
        MUTATIONS[name](adjacency)
        assert adjacency.csr_view() is None
        assert adjacency.mutation_version > version
        # The refrozen view reflects the mutation.
        for u in range(adjacency.n_nodes):
            np.testing.assert_array_equal(adjacency.freeze().neighbors(u),
                                          adjacency.neighbors(u))

    def test_refreeze_policy(self):
        adjacency = self._store()
        assert adjacency.traversal() is None  # first clean read: stay dynamic
        view = None
        for _ in range(FREEZE_AFTER_READS):
            view = adjacency.traversal()
        assert view is not None  # reads settled: frozen
        assert adjacency.traversal() is view  # cached thereafter
        adjacency.add_base_edge(0, 3)
        assert adjacency.csr_view() is None  # mutation dirtied it
        assert adjacency.traversal() is None  # and reset the read counter

    def test_mutation_stamps(self):
        adjacency = self._store()
        v0 = adjacency.mutation_version
        assert not adjacency.add_base_edge(0, 1)  # no-op: no new version
        assert adjacency.mutation_version == v0
        adjacency.add_base_edge(2, 5)
        assert adjacency.mutation_version > v0

    def test_copy_is_independent(self):
        adjacency = self._store()
        adjacency.freeze()
        dup = adjacency.copy()
        assert dup.csr_view() is None  # copies refreeze on their own
        dup.add_base_edge(0, 4)
        assert adjacency.csr_view() is not None  # original stays frozen

    def test_ro_accessors_view_internal_state(self):
        adjacency = self._store()
        assert adjacency.base_neighbors_ro(0) is not adjacency.base_neighbors(0)
        assert adjacency.base_neighbors_ro(0) == adjacency.base_neighbors(0)
        assert adjacency.extra_neighbors_ro(1) == adjacency.extra_neighbors(1)
        assert adjacency.base_degree(0) == len(adjacency.base_neighbors_ro(0))

    def test_single_pass_eviction_semantics(self):
        adjacency = AdjacencyStore(8)
        adjacency.add_extra_edge(0, 4, 2.0)
        adjacency.add_extra_edge(0, 3, 2.0)  # tie: smaller target id first
        adjacency.add_extra_edge(0, 5, float("inf"))  # never evicted
        adjacency.add_extra_edge(0, 6, 1.0)
        assert adjacency.evict_lowest_eh(0) == (6, 1.0)
        assert adjacency.evict_lowest_eh(0) == (3, 2.0)
        assert adjacency.evict_lowest_eh(0) == (4, 2.0)
        assert adjacency.evict_lowest_eh(0) is None  # only inf left
        assert 5 in adjacency.extra_neighbors_ro(0)


class TestVisitedMarkMany:
    def test_mark_many_equals_mark_loop(self):
        a, b = VisitedTable(50), VisitedTable(50)
        a.next_epoch()
        b.next_epoch()
        ids = np.array([3, 7, 7, 21, 49])
        a.mark_many(ids)
        for i in ids:
            b.mark(int(i))
        np.testing.assert_array_equal(a._stamps, b._stamps)
        assert all(a.is_visited(int(i)) for i in ids)
        a.next_epoch()
        assert not a.is_visited(3)


class TestParallelEqualsSerial:
    """What runs on the thread pool gives the one-thread answer at any
    budget, and the builds whose candidate walks went native give the
    reference executor's graphs."""

    def test_ground_truth_bitwise(self, tiny_ds):
        runs = []
        for budget in BUDGETS:
            with thread_budget(budget):
                runs.append((
                    compute_ground_truth(tiny_ds.base, tiny_ds.test_queries,
                                         10, tiny_ds.metric, batch_size=16),
                    brute_force_knn_graph(tiny_ds.base, 10, tiny_ds.metric,
                                          batch_size=64)))
                assert (parallel._POOL is None) == (budget == 1)
        (gt, knn), rest = runs[0], runs[1:]
        for other_gt, other_knn in rest:
            np.testing.assert_array_equal(gt.ids, other_gt.ids)
            np.testing.assert_array_equal(gt.distances, other_gt.distances)
            np.testing.assert_array_equal(knn, other_knn)
        assert not (knn == np.arange(knn.shape[0])[:, None]).any()

    @pytest.mark.parametrize("cls", ["nsg", "tau-mng", "roargraph"])
    def test_builds_identical(self, tiny_ds, cls):
        def build():
            if cls == "nsg":
                return NSG(tiny_ds.base, tiny_ds.metric, R=10, L=20,
                           knn_k=10)
            if cls == "tau-mng":
                return TauMNG(tiny_ds.base, tiny_ds.metric, R=10, L=20,
                              knn_k=10, tau=0.05)
            return RoarGraph(tiny_ds.base, tiny_ds.metric,
                             tiny_ds.train_queries[:40], M=10,
                             n_query_neighbors=12, knn_k=8)
        with thread_budget(1):
            reference = build()  # this module runs on the reference executor
        with native_executor(), thread_budget(4):
            native_built = build()
        assert reference.dc.ndc == native_built.dc.ndc
        for u in range(reference.size):
            assert (reference.adjacency.base_neighbors_ro(u)
                    == native_built.adjacency.base_neighbors_ro(u))

    @pytest.mark.parametrize("preprocess", ["exact", "approx"])
    def test_fit_identical(self, tiny_ds, preprocess):
        def fit():
            base = HNSW(tiny_ds.base, tiny_ds.metric, M=8, ef_construction=40,
                        single_layer=True, seed=3)
            fixer = NGFixer(base, FixConfig(
                k=5, max_extra_degree=6, preprocess=preprocess, rounds=(5,)))
            fixer.fit(tiny_ds.train_queries[:40])
            return fixer
        with thread_budget(1):
            serial = fit()
        with thread_budget(4):
            pooled = fit()
        assert serial.dc.ndc == pooled.dc.ndc
        assert serial.preprocess_ndc == pooled.preprocess_ndc
        for u in range(tiny_ds.base.shape[0]):
            assert (serial.adjacency.base_neighbors_ro(u)
                    == pooled.adjacency.base_neighbors_ro(u))
            assert (serial.adjacency.extra_neighbors_ro(u)
                    == pooled.adjacency.extra_neighbors_ro(u))

    def test_evaluate_index_identical(self, tiny_ds, tiny_gt):
        store = VectorStore(dim=tiny_ds.base.shape[1], metric=tiny_ds.metric,
                            M=8, ef_construction=40)
        store.add(tiny_ds.base)
        store.build()
        points = []
        for budget in BUDGETS:
            with thread_budget(budget):
                points.append(evaluate_index(store, tiny_ds.test_queries,
                                             tiny_gt, k=10, ef=30,
                                             batch_size=8))
        store.close()
        for point in points[1:]:
            assert point.recall == points[0].recall
            assert point.rderr == points[0].rderr
            assert point.ndc_per_query == points[0].ndc_per_query


class TestParallelMapUtility:
    def test_order_preserved(self):
        def square(x):
            time.sleep(0.001 * ((7 * x) % 5))  # finish out of order
            return x * x
        with thread_budget(3):
            assert parallel_map(square, range(17)) == [x * x for x in range(17)]
            assert parallel._POOL is not None

    def test_serial_fallback(self):
        caller = threading.get_ident()
        with thread_budget(1):
            assert parallel_map(lambda x: (x + 1, threading.get_ident()),
                                [1, 2]) == [(2, caller), (3, caller)]
            assert parallel._POOL is None
        with thread_budget(4):
            assert parallel_map(lambda x: x + 1, []) == []
            assert parallel_map(lambda x: threading.get_ident(), [1]) == [caller]
            assert parallel._POOL is None

    def test_nested_calls_degrade_to_serial(self):
        def outer(x):
            inner = parallel_map(lambda y: (y + x, threading.get_ident()),
                                 [10, 20])
            assert {ident for _, ident in inner} == {threading.get_ident()}
            return [value for value, _ in inner]
        # Spare threads: were the inner maps pooled, they would run (on
        # other threads) instead of deadlocking.
        with thread_budget(4):
            assert parallel_map(outer, [1, 2]) == [[11, 21], [12, 22]]

    def test_raises_after_every_item_settles(self):
        done = []

        def item(x):
            if x in (1, 3):
                raise ValueError(f"item {x}")
            time.sleep(0.05)
            done.append(x)
            return x
        with thread_budget(2):
            with pytest.raises(ValueError, match="item 1"):
                parallel_map(item, range(6))
            settled = sorted(done)  # before the budget's pool shuts down
        assert settled == [0, 2, 4, 5]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_runs_serially(self):
        with thread_budget(2):
            assert parallel_map(lambda x: x, [1, 2]) == [1, 2]
            assert parallel._POOL is not None
            with warnings.catch_warnings():
                # Python 3.12+ warns about forking a multi-threaded process.
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
            if pid == 0:  # the child: report through the exit status only
                code = 1
                try:
                    idents = parallel_map(lambda x: threading.get_ident(),
                                          range(4))
                    serial = (set(idents) == {threading.get_ident()}
                              and parallel._POOL is None
                              and parallel._THREADS == 1)
                    code = 0 if serial else 2
                finally:
                    os._exit(code)
            deadline = time.monotonic() + 60
            while True:
                done, status = os.waitpid(pid, os.WNOHANG)
                if done:
                    break
                if time.monotonic() > deadline:
                    os.kill(pid, 9)
                    os.waitpid(pid, 0)
                    pytest.fail("the forked child's parallel_map hung")
                time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_chunk_bounds_cover_range(self):
        bounds = chunk_bounds(10, 3)
        assert bounds == [(0, 3), (3, 6), (6, 9), (9, 10)]
        assert chunk_bounds(0, 4) == []
        with pytest.raises(ValueError):
            chunk_bounds(5, 0)
