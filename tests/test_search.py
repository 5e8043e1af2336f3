"""Greedy search (Algorithm 1): correctness on hand-built graphs."""

import numpy as np
import pytest

from repro.distances import DistanceComputer, Metric
from repro.graphs.search import VisitedTable, greedy_search


def _line_graph(n=10):
    """Points on a line, each node linked to its immediate neighbors."""
    data = np.arange(n, dtype=np.float32)[:, None]
    dc = DistanceComputer(data, Metric.L2)
    adj = {i: [j for j in (i - 1, i + 1) if 0 <= j < n] for i in range(n)}

    def neighbors(u):
        return np.array(adj[u], dtype=np.int64)

    return dc, neighbors


def _complete_graph(n, dim, seed=0):
    data = np.random.default_rng(seed).standard_normal((n, dim)).astype(np.float32)
    dc = DistanceComputer(data, Metric.L2)
    everyone = np.arange(n, dtype=np.int64)

    def neighbors(u):
        return everyone[everyone != u]

    return dc, neighbors


class TestVisitedTable:
    def test_epoch_reset_is_o1(self):
        t = VisitedTable(5)
        t.next_epoch()
        t.mark(2)
        assert t.is_visited(2)
        t.next_epoch()
        assert not t.is_visited(2)

    def test_filter_unvisited_marks(self):
        t = VisitedTable(5)
        t.next_epoch()
        ids = np.array([0, 1, 2])
        fresh = t.filter_unvisited(ids)
        assert fresh.tolist() == [0, 1, 2]
        assert t.filter_unvisited(ids).tolist() == []

    def test_grow(self):
        t = VisitedTable(2)
        t.grow(5)
        t.next_epoch()
        t.mark(4)
        assert t.is_visited(4)


class TestGreedySearchLine:
    def test_walks_to_target(self):
        dc, neighbors = _line_graph(10)
        result = greedy_search(dc, neighbors, [0], np.array([7.2], np.float32),
                               k=2, ef=4)
        assert result.ids[0] == 7
        assert set(result.ids.tolist()) == {7, 8} or set(result.ids.tolist()) == {7, 6}

    def test_results_sorted_by_distance(self):
        dc, neighbors = _line_graph(10)
        result = greedy_search(dc, neighbors, [0], np.array([5.0], np.float32),
                               k=5, ef=8)
        assert (np.diff(result.distances) >= 0).all()

    def test_small_ef_can_stall(self):
        """With ef=1 a greedy walk on a line reaches the target anyway (the
        line is monotone), but never returns more than k results."""
        dc, neighbors = _line_graph(10)
        result = greedy_search(dc, neighbors, [0], np.array([9.0], np.float32),
                               k=1, ef=1)
        assert result.ids.tolist() == [9]

    def test_hops_counted(self):
        dc, neighbors = _line_graph(10)
        result = greedy_search(dc, neighbors, [0], np.array([9.0], np.float32),
                               k=1, ef=2)
        assert result.n_hops >= 9


class TestGreedySearchComplete:
    def test_exact_on_complete_graph(self):
        """On a complete graph one expansion sees everything: exact top-k."""
        dc, neighbors = _complete_graph(30, 4)
        q = np.random.default_rng(5).standard_normal(4).astype(np.float32)
        result = greedy_search(dc, neighbors, [0], q, k=5, ef=10)
        expected = np.argsort(dc.to_query(np.arange(30), dc.prepare_query(q)))[:5]
        assert set(result.ids.tolist()) == set(expected.tolist())

    def test_ndc_counted(self):
        dc, neighbors = _complete_graph(20, 4)
        dc.reset_ndc()
        greedy_search(dc, neighbors, [0], np.zeros(4, np.float32), k=3, ef=5)
        assert dc.ndc > 0


class TestSearchOptions:
    def test_excluded_nodes_not_in_results(self):
        dc, neighbors = _line_graph(10)
        result = greedy_search(dc, neighbors, [0], np.array([7.0], np.float32),
                               k=3, ef=6, excluded={7})
        assert 7 not in result.ids.tolist()
        # ...but 7 still navigates: its neighbors are found
        assert {6, 8} <= set(result.ids.tolist())

    def test_collect_visited(self):
        dc, neighbors = _line_graph(10)
        result = greedy_search(dc, neighbors, [0], np.array([9.0], np.float32),
                               k=1, ef=3, collect_visited=True)
        assert result.visited_ids is not None
        assert len(result.visited_ids) == len(result.visited_distances)
        # every visited node's recorded distance matches recomputation
        q = dc.prepare_query(np.array([9.0], np.float32))
        assert np.allclose(result.visited_distances,
                           dc.to_query(result.visited_ids, q))

    def test_results_subset_of_visited(self):
        dc, neighbors = _complete_graph(25, 3)
        result = greedy_search(dc, neighbors, [0], np.zeros(3, np.float32),
                               k=5, ef=8, collect_visited=True)
        assert set(result.ids.tolist()) <= set(result.visited_ids.tolist())

    def test_duplicate_entries_deduped(self):
        dc, neighbors = _line_graph(5)
        result = greedy_search(dc, neighbors, [0, 0, 1], np.array([1.0], np.float32),
                               k=2, ef=4)
        assert len(set(result.ids.tolist())) == len(result.ids)

    def test_reusable_visited_table(self):
        dc, neighbors = _line_graph(10)
        table = VisitedTable(10)
        r1 = greedy_search(dc, neighbors, [0], np.array([9.0], np.float32),
                           k=1, ef=3, visited=table)
        r2 = greedy_search(dc, neighbors, [0], np.array([3.0], np.float32),
                           k=1, ef=3, visited=table)
        assert r1.ids[0] == 9 and r2.ids[0] == 3

    def test_ef_clamped_to_k(self):
        dc, neighbors = _line_graph(10)
        result = greedy_search(dc, neighbors, [0], np.array([2.0], np.float32),
                               k=4, ef=1)
        assert len(result.ids) == 4

    def test_invalid_args(self):
        dc, neighbors = _line_graph(5)
        with pytest.raises(ValueError):
            greedy_search(dc, neighbors, [0], np.zeros(1, np.float32), k=0, ef=5)
        with pytest.raises(ValueError):
            greedy_search(dc, neighbors, [], np.zeros(1, np.float32), k=1, ef=5)

    def test_isolated_entry_returns_entry(self):
        data = np.array([[0.0], [1.0]], dtype=np.float32)
        dc = DistanceComputer(data, Metric.L2)

        def neighbors(u):
            return np.empty(0, dtype=np.int64)

        result = greedy_search(dc, neighbors, [1], np.zeros(1, np.float32), k=1, ef=2)
        assert result.ids.tolist() == [1]


class TestVisitedTableGrowth:
    """Regression: a reused VisitedTable predating incremental insertion must
    grow before stamping, or searching toward new ids raises IndexError."""

    def test_reused_table_grows_after_append(self):
        data = np.arange(5, dtype=np.float32)[:, None]
        dc = DistanceComputer(data, Metric.L2)
        adj = {i: [j for j in (i - 1, i + 1) if 0 <= j < 5] for i in range(5)}

        def neighbors(u):
            return np.array(adj.get(u, []), dtype=np.int64)

        table = VisitedTable(dc.size)
        greedy_search(dc, neighbors, [0], np.array([3.0], np.float32),
                      k=1, ef=2, visited=table)
        new_id = dc.append(np.array([[5.0]], np.float32))
        adj[4].append(new_id)
        adj[new_id] = [4]
        result = greedy_search(dc, neighbors, [new_id],
                               np.array([5.0], np.float32),
                               k=1, ef=2, visited=table)
        assert result.ids[0] == new_id

    def test_index_search_after_external_append(self):
        """GraphIndex.search reuses its engine's visited table across
        incremental insertions done via dc.append + adjacency.grow."""
        from repro.graphs.base import GraphIndex

        class _Fixed(GraphIndex):
            def entry_points(self, query):
                return [0]

        data = np.arange(4, dtype=np.float32)[:, None]
        index = _Fixed(data, Metric.L2)
        for u in range(3):
            index.adjacency.add_base_edge(u, u + 1)
            index.adjacency.add_base_edge(u + 1, u)
        index.search(np.array([2.0], np.float32), k=1, ef=2)
        new_id = index.dc.append(np.array([[4.0]], np.float32))
        index.adjacency.grow(1)
        index.adjacency.add_base_edge(3, new_id)
        index.adjacency.add_base_edge(new_id, 3)
        result = index.search(np.array([4.0], np.float32), k=1, ef=4)
        assert result.ids[0] == new_id


class TestDisconnectedGraph:
    def test_unreachable_component_missed(self):
        """Two disjoint cliques: search starting in one never finds the other
        — the failure mode NGFix exists to repair."""
        data = np.vstack([np.zeros((3, 2)), np.ones((3, 2)) * 10]).astype(np.float32)
        dc = DistanceComputer(data, Metric.L2)
        adj = {0: [1, 2], 1: [0, 2], 2: [0, 1],
               3: [4, 5], 4: [3, 5], 5: [3, 4]}

        def neighbors(u):
            return np.array(adj[u], dtype=np.int64)

        q = np.full(2, 10.0, dtype=np.float32)  # true NNs live in clique 2
        result = greedy_search(dc, neighbors, [0], q, k=3, ef=10)
        assert set(result.ids.tolist()) == {0, 1, 2}
