"""Property-based tests on cross-module invariants (hypothesis)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.escape_hardness import escape_hardness
from repro.core.ngfix import ngfix_query
from repro.distances import DistanceComputer, Metric, pairwise_distances
from repro.evalx import compute_ground_truth, recall_per_query
from repro.graphs import BruteForceIndex
from repro.graphs.adjacency import AdjacencyStore
from repro.graphs.search import greedy_search


def _random_world(draw, n_min=8, n_max=40, dim_max=6):
    n = draw(st.integers(n_min, n_max))
    dim = draw(st.integers(2, dim_max))
    seed = draw(st.integers(0, 2**16))
    data = np.random.default_rng(seed).standard_normal((n, dim)).astype(np.float32)
    return data, seed


@st.composite
def world_with_graph(draw):
    data, seed = _random_world(draw)
    n = data.shape[0]
    rng = np.random.default_rng(seed + 1)
    adjacency = AdjacencyStore(n)
    deg = draw(st.integers(1, 6))
    for u in range(n):
        for v in rng.choice(n, size=min(deg, n - 1), replace=False):
            if int(v) != u:
                adjacency.add_base_edge(u, int(v))
    metric = draw(st.sampled_from(list(Metric)))
    return data, adjacency, metric, seed


class TestSearchProperties:
    @settings(max_examples=30, deadline=None)
    @given(world_with_graph(), st.integers(1, 5), st.integers(1, 20))
    def test_search_results_sorted_unique_valid(self, world, k, ef):
        data, adjacency, metric, seed = world
        dc = DistanceComputer(data, metric)
        q = np.random.default_rng(seed + 2).standard_normal(data.shape[1]).astype(np.float32)
        result = greedy_search(dc, adjacency.neighbors, [0], q, k=k, ef=ef)
        assert 1 <= len(result.ids) <= k
        assert len(set(result.ids.tolist())) == len(result.ids)
        assert (np.diff(result.distances) >= -1e-9).all()
        assert ((result.ids >= 0) & (result.ids < data.shape[0])).all()

    @settings(max_examples=20, deadline=None)
    @given(world_with_graph())
    def test_larger_ef_never_hurts_top1(self, world):
        """The best distance found is monotonically non-increasing in ef."""
        data, adjacency, metric, seed = world
        dc = DistanceComputer(data, metric)
        q = np.random.default_rng(seed + 3).standard_normal(data.shape[1]).astype(np.float32)
        best = np.inf
        for ef in (1, 4, 16, 64):
            r = greedy_search(dc, adjacency.neighbors, [0], q, k=1, ef=ef)
            assert r.distances[0] <= best + 1e-9
            best = min(best, r.distances[0])

    @settings(max_examples=20, deadline=None)
    @given(world_with_graph())
    def test_full_ef_on_connected_graph_is_exact(self, world):
        """With ef >= n and a graph reachable from the entry, greedy search
        degenerates to exhaustive scan of the reachable set."""
        data, adjacency, metric, seed = world
        n = data.shape[0]
        # make reachability total with a ring
        for u in range(n):
            adjacency.add_base_edge(u, (u + 1) % n)
        dc = DistanceComputer(data, metric)
        q = np.random.default_rng(seed + 4).standard_normal(data.shape[1]).astype(np.float32)
        r = greedy_search(dc, adjacency.neighbors, [0], q, k=3, ef=n)
        qv = dc.prepare_query(q)
        exact = np.argsort(dc.to_query(np.arange(n), qv), kind="stable")[:3]
        assert set(r.ids.tolist()) == set(exact.tolist())


class TestNgfixProperties:
    @settings(max_examples=20, deadline=None)
    @given(world_with_graph(), st.integers(3, 8))
    def test_ngfix_postcondition_and_budget(self, world, k):
        """After NGFix: all NN pairs ε-reachable (unbounded budget), and at
        most 2(k-1) edges added (Theorem 4)."""
        data, adjacency, metric, seed = world
        if data.shape[0] <= 3 * k:
            return
        dc = DistanceComputer(data, metric)
        q = np.random.default_rng(seed + 5).standard_normal(data.shape[1]).astype(np.float32)
        gt = compute_ground_truth(dc.data, q[None, :], 3 * k, metric)
        eh = escape_hardness(adjacency.neighbors, gt.ids[0], k)
        outcome = ngfix_query(adjacency, dc, eh, max_extra_degree=10**6)
        assert outcome.fully_reachable
        assert len(outcome.edges_added) <= 2 * (k - 1)
        eh2 = escape_hardness(adjacency.neighbors, gt.ids[0], k)
        assert eh2.n_unreachable_pairs() == 0

    @settings(max_examples=15, deadline=None)
    @given(world_with_graph(), st.integers(3, 6), st.integers(1, 4))
    def test_extra_degree_budget_held(self, world, k, budget):
        data, adjacency, metric, seed = world
        if data.shape[0] <= 3 * k:
            return
        dc = DistanceComputer(data, metric)
        rng = np.random.default_rng(seed + 6)
        for _ in range(3):
            q = rng.standard_normal(data.shape[1]).astype(np.float32)
            gt = compute_ground_truth(dc.data, q[None, :], 3 * k, metric)
            eh = escape_hardness(adjacency.neighbors, gt.ids[0], k)
            ngfix_query(adjacency, dc, eh, max_extra_degree=budget)
        for u in range(data.shape[0]):
            assert adjacency.extra_degree(u) <= budget


class TestMaintenanceProperties:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**16), st.integers(1, 8))
    def test_inserted_points_are_findable(self, seed, n_inserts):
        from repro.graphs import HNSW
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((60, 4)).astype(np.float32)
        extra = rng.standard_normal((n_inserts, 4)).astype(np.float32)
        index = HNSW(data, Metric.L2, M=6, ef_construction=25)
        for vec in extra:
            [new_id] = index.insert(vec)
            result = index.search(vec, k=1, ef=30)
            assert result.ids[0] == new_id

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**16), st.integers(1, 10))
    def test_tombstoned_never_returned(self, seed, n_delete):
        from repro.graphs import HNSW
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((50, 4)).astype(np.float32)
        index = HNSW(data, Metric.L2, M=6, ef_construction=25)
        victims = set(int(v) for v in
                      rng.choice(50, size=n_delete, replace=False))
        index.adjacency.tombstones.update(victims)
        for q in data[:5]:
            result = index.search(q, k=5, ef=20)
            assert not (set(result.ids.tolist()) & victims)


class TestQuantizationProperties:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**16), st.sampled_from([2, 4]),
           st.sampled_from([4, 8, 16]))
    def test_codes_in_range_and_decode_shape(self, seed, m, ks):
        from repro.quantization import ProductQuantizer
        data = np.random.default_rng(seed).standard_normal((40, 8)).astype(np.float32)
        pq = ProductQuantizer(m=m, ks=ks, seed=0).fit(data)
        codes = pq.encode(data)
        assert codes.max() < ks
        assert pq.decode(codes).shape == data.shape

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**16))
    def test_adc_lower_error_than_random_table(self, seed):
        """ADC with the query's own table correlates with true distances
        far better than with another query's table."""
        from repro.quantization import ProductQuantizer
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((80, 8)).astype(np.float32)
        pq = ProductQuantizer(m=4, ks=16, seed=0).fit(data)
        codes = pq.encode(data)
        q = rng.standard_normal(8).astype(np.float32)
        true = ((data - q) ** 2).sum(axis=1)
        own = pq.adc_distances(codes, pq.adc_table(q))
        err_own = float(np.abs(own - true).mean())
        other = pq.adc_distances(
            codes, pq.adc_table(rng.standard_normal(8).astype(np.float32)))
        err_other = float(np.abs(other - true).mean())
        assert err_own <= err_other + 1e-9


class TestMetricProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(4, 20), st.integers(2, 6), st.integers(0, 2**16),
           st.sampled_from(list(Metric)))
    def test_ground_truth_is_recall_one_against_bruteforce(self, n, dim, seed,
                                                           metric):
        data = np.random.default_rng(seed).standard_normal((n, dim)).astype(np.float32)
        queries = np.random.default_rng(seed + 1).standard_normal((3, dim)).astype(np.float32)
        k = min(3, n - 1)
        gt = compute_ground_truth(data, queries, k, metric)
        index = BruteForceIndex(data, metric)
        found = np.vstack([index.search(q, k=k).ids for q in queries])
        assert recall_per_query(found, gt.ids).min() == 1.0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(3, 15), st.integers(2, 5), st.integers(0, 2**16))
    def test_pairwise_consistent_with_ground_truth_order(self, n, dim, seed):
        data = np.random.default_rng(seed).standard_normal((n, dim)).astype(np.float32)
        q = np.random.default_rng(seed + 1).standard_normal((1, dim)).astype(np.float32)
        for metric in Metric:
            gt = compute_ground_truth(data, q, min(3, n - 1), metric)
            d = pairwise_distances(q, data, metric)[0]
            assert gt.ids[0, 0] == int(np.argsort(d, kind="stable")[0])
