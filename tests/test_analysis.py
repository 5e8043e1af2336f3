"""Two-phase diagnostics and QNG-recall correlation (Sec. 4 figures)."""

import numpy as np
import pytest

from repro.core.analysis import (
    phase_reach_stats,
    qng_recall_correlation,
    recall_histogram,
)


class TestRecallHistogram:
    def test_buckets_partition(self):
        recalls = np.array([0.0, 0.3, 0.6, 0.8, 0.95, 1.0])
        hist = recall_histogram(recalls)
        assert sum(hist.values()) == pytest.approx(1.0)

    def test_last_bucket_inclusive(self):
        hist = recall_histogram(np.array([1.0]))
        assert hist["[0.90, 1.00]"] == 1.0

    def test_all_zero(self):
        hist = recall_histogram(np.zeros(4))
        assert hist["[0.00, 0.25)"] == 1.0


class TestPhaseReachStats:
    def test_fields_and_ranges(self, tiny_ds, shared_hnsw, tiny_gt):
        stats = phase_reach_stats(shared_hnsw, tiny_ds.test_queries, tiny_gt,
                                  k=10, ef=20)
        assert 0 <= stats["reached_vicinity_fraction"] <= 1
        assert 0 <= stats["mean_recall"] <= 1
        assert len(stats["recalls"]) == len(tiny_ds.test_queries)

    def test_most_searches_reach_vicinity(self, tiny_ds, shared_hnsw, tiny_gt):
        """Paper Fig. 2(b): for the large majority of queries greedy search
        enters phase 2 (recall > 0)."""
        stats = phase_reach_stats(shared_hnsw, tiny_ds.test_queries, tiny_gt,
                                  k=10, ef=20)
        assert stats["reached_vicinity_fraction"] > 0.8


class TestDiscoveryEdges:
    def test_zero_before_fixing(self, shared_hnsw, tiny_ds):
        from repro.core.analysis import discovery_edge_stats
        stats = discovery_edge_stats(shared_hnsw, tiny_ds.test_queries[:10],
                                     k=8, ef=20)
        assert stats["via_extra_edges"] == 0
        assert stats["total_results"] == 80

    def test_classifies_exactly_what_search_returns(self, tiny_ds, fresh_hnsw,
                                                    monkeypatch):
        """The replay is ``greedy_search`` itself: every query contributes
        its k results, and they are ``index.search``'s ids."""
        from repro.core import analysis
        fresh_hnsw.adjacency.tombstones.update(range(0, 400, 7))
        classified = []
        replay = analysis.greedy_search

        def recording(*args, **kwargs):
            result = replay(*args, **kwargs)
            classified.append(result.ids.tolist())
            return result

        monkeypatch.setattr(analysis, "greedy_search", recording)
        queries = tiny_ds.test_queries[:12]
        stats = analysis.discovery_edge_stats(fresh_hnsw, queries, k=8, ef=20)
        assert stats["total_results"] == len(queries) * 8
        assert classified == [fresh_hnsw.search(q, k=8, ef=20).ids.tolist()
                              for q in queries]

    def test_extra_edges_carry_results_after_fixing(self, tiny_ds, fresh_hnsw):
        from repro.core import FixConfig, NGFixer
        from repro.core.analysis import discovery_edge_stats
        fixer = NGFixer(fresh_hnsw, FixConfig(k=8, preprocess="exact"))
        fixer.fit(tiny_ds.train_queries)
        stats = discovery_edge_stats(fixer, tiny_ds.test_queries, k=8, ef=20)
        assert stats["extra_fraction"] > 0.02, (
            "fixed edges should discover a visible share of results")


class TestQngCorrelation:
    def test_positive_correlation(self, tiny_ds, shared_hnsw, tiny_gt):
        """Fig. 4(a): queries with better-connected QNGs achieve higher
        recall."""
        out = qng_recall_correlation(shared_hnsw, tiny_ds.test_queries,
                                     tiny_gt, k=10, ef=15)
        assert out["avg_reachable"].shape == out["recalls"].shape
        assert np.isnan(out["pearson_r"]) or out["pearson_r"] > 0.15
