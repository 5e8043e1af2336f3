"""Escape Hardness: definition conformance, paper examples, invariants, and
the native executor against the reference and the brute-force oracle."""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import FixConfig, IndexMaintainer, NGFixer
from repro.core.escape_hardness import (
    EscapeHardnessResult,
    escape_hardness,
    escape_hardness_bruteforce,
    reachability_matrix,
)
from repro.graphs import HNSW, native
from repro.serving import EpochManager
from tests.conftest import csr_graph, reference_executor, store_of


def _neighbors_from(adj: dict):
    def fn(u):
        return np.array(adj.get(u, []), dtype=np.int64)
    return fn


# Global ids 100+rank, so local ranks are distinct from global ids in tests.
def _ids(K):
    return np.array([100 + r for r in range(K)], dtype=np.int64)


def _adj(edges, K):
    """edges given in local-rank space, lifted to global ids."""
    adj = {}
    for u, v in edges:
        adj.setdefault(100 + u, []).append(100 + v)
    return _neighbors_from(adj)


class TestPaperExample:
    """Fig. 6(b): x1..x4 mutually unreachable; adding x5 connects x1->x4;
    x2 reaches x4 through x5 as well."""

    def test_fig6b(self):
        # local ranks 0..4 are x1..x5.
        edges = [(0, 4), (4, 3), (1, 4)]  # x1->x5, x5->x4, x2->x5
        fn = _adj(edges, 5)
        result = escape_hardness(fn, _ids(5), k=4)
        assert result.eh[0, 3] == 5.0  # x1 -> x4 via x5
        assert result.eh[1, 3] == 5.0  # x2 -> x4 via x5
        assert np.isinf(result.eh[3, 0])  # x4 cannot escape back

    def test_direct_edge_eh_is_max_rank(self):
        # edge x1->x2 gives EH(x1->x2) = 2 (both endpoints present at K=2)
        fn = _adj([(0, 1)], 3)
        result = escape_hardness(fn, _ids(3), k=3)
        assert result.eh[0, 1] == 2.0

    def test_path_through_lower_rank_beats_higher(self):
        # x1->x3->x2 (EH 3) and x1->x5->x2 (EH 5): minimum is 3.
        edges = [(0, 2), (2, 1), (0, 4), (4, 1)]
        fn = _adj(edges, 5)
        result = escape_hardness(fn, _ids(5), k=2)
        assert result.eh[0, 1] == 3.0


class TestDefinitionConformance:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 12), st.integers(1, 4), st.data())
    def test_incremental_matches_bruteforce(self, K, k_ratio, data):
        """The incremental Algorithm 2 equals the minimax-path definition on
        random directed graphs."""
        k = max(1, K // k_ratio)
        edges = data.draw(st.lists(
            st.tuples(st.integers(0, K - 1), st.integers(0, K - 1)),
            max_size=4 * K))
        edges = [(u, v) for u, v in edges if u != v]
        fn = _adj(edges, K)
        ids = _ids(K)
        inc = escape_hardness(fn, ids, k)
        ref = escape_hardness_bruteforce(fn, ids, k)
        assert np.array_equal(inc.eh, ref.eh), (edges, k)

    def test_on_real_index(self, shared_hnsw, tiny_gt):
        for i in range(8):
            ids = tiny_gt.ids[i][:24]
            inc = escape_hardness(shared_hnsw.adjacency.neighbors, ids, 8)
            ref = escape_hardness_bruteforce(shared_hnsw.adjacency.neighbors, ids, 8)
            assert np.array_equal(inc.eh, ref.eh)


class TestInvariants:
    def test_diagonal_zero(self):
        fn = _adj([(0, 1)], 4)
        assert (np.diag(escape_hardness(fn, _ids(4), 4).eh) == 0).all()

    def test_eh_at_least_max_endpoint_rank(self):
        fn = _adj([(0, 1), (1, 2), (2, 0), (0, 3), (3, 1)], 4)
        result = escape_hardness(fn, _ids(4), 4)
        for u in range(4):
            for v in range(4):
                if u != v and np.isfinite(result.eh[u, v]):
                    assert result.eh[u, v] >= max(u, v) + 1

    def test_unreachable_is_inf(self):
        fn = _adj([], 4)
        result = escape_hardness(fn, _ids(4), 3)
        off_diag = result.eh[~np.eye(3, dtype=bool)]
        assert np.isinf(off_diag).all()
        assert result.n_unreachable_pairs() == 6

    def test_triangle_like_inequality(self):
        """EH(u->w) <= max(EH(u->v), EH(v->w)): concatenating paths."""
        rng = np.random.default_rng(0)
        edges = [(int(a), int(b)) for a, b in rng.integers(0, 8, (30, 2))
                 if a != b]
        fn = _adj(edges, 8)
        eh = escape_hardness(fn, _ids(8), 8).eh
        for u in range(8):
            for v in range(8):
                for w in range(8):
                    assert eh[u, w] <= max(eh[u, v], eh[v, w]) + 1e-9

    def test_k_bounds_validated(self):
        fn = _adj([], 4)
        with pytest.raises(ValueError):
            escape_hardness(fn, _ids(4), 0)
        with pytest.raises(ValueError):
            escape_hardness(fn, _ids(4), 5)
        with pytest.raises(ValueError):
            escape_hardness_bruteforce(fn, _ids(4), 0)

    def test_duplicate_ids_rejected(self):
        fn = _adj([], 3)
        with pytest.raises(ValueError):
            escape_hardness(fn, np.array([1, 1, 2]), 2)


class TestResultHelpers:
    def _result(self):
        eh = np.array([[0.0, 2.0], [np.inf, 0.0]])
        return EscapeHardnessResult(nn_ids=_ids(4), k=2, K_max=4, eh=eh)

    def test_reachable_default_threshold(self):
        S = self._result().reachable()
        assert S[0, 1] and not S[1, 0]

    def test_reachable_custom_threshold(self):
        S = self._result().reachable(threshold=1.0)
        assert not S[0, 1]

    def test_reachability_matrix_alias(self):
        assert np.array_equal(reachability_matrix(self._result()),
                              self._result().reachable())

    def test_hardness_score_clips_inf(self):
        score = self._result().hardness_score()
        assert np.isfinite(score)
        assert score == pytest.approx((0 + 2 + 8 + 0) / 4)


class TestMonotonicity:
    def test_adding_edges_never_increases_eh(self):
        """More graph edges can only lower (or keep) every EH entry."""
        rng = np.random.default_rng(1)
        base_edges = [(int(a), int(b)) for a, b in rng.integers(0, 10, (12, 2))
                      if a != b]
        more_edges = base_edges + [(0, 9), (9, 0), (3, 7)]
        e1 = escape_hardness(_adj(base_edges, 10), _ids(10), 6).eh
        e2 = escape_hardness(_adj(more_edges, 10), _ids(10), 6).eh
        assert (e2 <= e1 + 1e-9).all()


# -- native ≡ reference ≡ brute force ----------------------------------------

@st.composite
def nn_graphs(draw):
    """A random directed graph over the K NNs plus a few other nodes:
    self-loops, duplicate edges and zero-degree (compacted) nodes included.
    Returns ``(lists, nn_ids, k)``."""
    K = draw(st.sampled_from([1, 63, 64, 65, 130]))
    n = K + draw(st.integers(0, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**20)))
    max_degree = draw(st.integers(1, 10))
    lists = [rng.integers(0, n, size=rng.integers(max_degree // 2,
                                                  max_degree + 1)).tolist()
             for _ in range(n)]
    for u in np.flatnonzero(rng.random(n) < 0.1):
        lists[u] = []
    # The whole NN set or all but one as often as a random k: the last
    # word of a row past 64 bits is where the masks are.
    k = draw(st.one_of(st.sampled_from(sorted({K, max(K - 1, 1)})),
                       st.integers(1, K)))
    return lists, rng.permutation(n)[:K], k


def _epoch_view(lists):
    """The graph as an epoch view whose overlay patches half the nodes: the
    epoch is cut with the odd nodes' rows empty, then they are written."""
    store = store_of(csr_graph([[] if u % 2 else row
                                for u, row in enumerate(lists)]), len(lists))
    manager = EpochManager(store, entry=0)
    for u in range(1, len(lists), 2):
        store.set_base_neighbors(u, lists[u])
    return manager.pin()


def _graph_shapes(lists):
    """The graph as a frozen CSR as given, a live store (the store refuses
    self-loops, which never change EH), its ``freeze()`` and an epoch view
    with an overlay."""
    view = csr_graph(lists)
    store = store_of(view, len(lists))
    return {"csr": view, "slab": store, "frozen": store.freeze(),
            "epoch": _epoch_view(lists).view}


class TestNativeExecutor:
    @settings(max_examples=100, deadline=None)
    @given(nn_graphs())
    def test_native_reference_and_bruteforce_agree(self, graph):
        lists, nn_ids, k = graph
        plain = _neighbors_from(dict(enumerate(lists)))
        want = escape_hardness(plain, nn_ids, k).eh
        assert np.array_equal(want, escape_hardness_bruteforce(
            plain, nn_ids, k).eh)
        for name, shape in _graph_shapes(lists).items():
            if native.enabled():
                native_eh = native.escape_hardness(
                    shape.native_graph(), nn_ids, k)
                assert np.array_equal(native_eh, want), name
            assert np.array_equal(escape_hardness(shape, nn_ids, k).eh,
                                  want), name
            with reference_executor():
                assert np.array_equal(escape_hardness(shape, nn_ids, k).eh,
                                      want), name

    def test_duplicate_ids_raise_on_both_executors(self):
        for shape in _graph_shapes([[1], [2], [0], []]).values():
            if native.enabled():
                assert native.escape_hardness(
                    shape.native_graph(), np.array([1, 1, 2]), 2) is None
            for executor in (contextlib.nullcontext, reference_executor):
                with executor(), pytest.raises(ValueError,
                                               match="duplicates"):
                    escape_hardness(shape, np.array([1, 1, 2]), 2)

    def test_id_past_the_graph_falls_back_to_the_reference(self):
        store = store_of(csr_graph([[1], [2], [0]]), 3)
        manager = EpochManager(store, entry=0)
        store.grow(1)  # node 3: past the epoch's horizon, no patch row
        view = manager.pin().view
        ids = np.array([0, 3, 1, 2])
        if native.enabled():
            assert native.escape_hardness(view.native_graph(), ids, 3) is None
        want = escape_hardness_bruteforce(view.neighbors, ids, 3).eh
        assert np.array_equal(escape_hardness(view, ids, 3).eh, want)
        for shape in (csr_graph([[1], [2], [0]]), store.freeze()):
            if native.enabled():
                assert native.escape_hardness(shape.native_graph(),
                                              np.array([0, 5]), 1) is None
        with pytest.raises(IndexError):
            escape_hardness(csr_graph([[1], [2], [0]]), np.array([0, 5]), 1)

    def test_fit_fix_and_compact_match_the_reference_edge_for_edge(
            self, tiny_ds, monkeypatch):
        """The whole preprocessing pipeline with only EH forced onto the
        reference builds the same graph: extra edges, their EH tags and
        every per-query record."""
        def run():
            base = HNSW(tiny_ds.base[:300], tiny_ds.metric, M=8,
                        ef_construction=40)
            fixer = NGFixer(base, FixConfig(k=8, max_extra_degree=6,
                                            preprocess="approx",
                                            rounds=(16, 8)))
            fixer.fit(tiny_ds.train_queries[:40])
            for query in tiny_ds.test_queries[:10]:
                fixer.fix_query(query)
            maintainer = IndexMaintainer(fixer, tiny_ds.train_queries[:10],
                                         compact_threshold=0.5, seed=0)
            maintainer.delete(list(range(0, 300, 7)))
            maintainer.compact()
            return fixer

        native_fixer = run()
        monkeypatch.setattr(native, "escape_hardness", lambda *args: None)
        reference_fixer = run()
        assert native_fixer.records == reference_fixer.records
        for u in range(300):
            assert (native_fixer.adjacency.extra_neighbors(u)
                    == reference_fixer.adjacency.extra_neighbors(u))
            assert (native_fixer.adjacency.base_neighbors(u)
                    == reference_fixer.adjacency.base_neighbors(u))
