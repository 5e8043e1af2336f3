"""NGFixer orchestrator: config, fitting, the paper's headline effect."""

import numpy as np
import pytest

from repro.core import FixConfig, NGFixer
from repro.evalx import evaluate_index, recall_at_k
from repro.graphs import HNSW


class TestFixConfig:
    def test_defaults(self):
        config = FixConfig()
        assert config.rounds == (config.k,)
        assert config.k_max() == 30

    def test_k_max_per_round(self):
        config = FixConfig(k=10, hard_ratio=2.0)
        assert config.k_max(5) == 10
        assert config.k_max() == 20

    def test_validation(self):
        with pytest.raises(ValueError):
            FixConfig(k=0)
        with pytest.raises(ValueError):
            FixConfig(hard_ratio=0.5)
        with pytest.raises(ValueError):
            FixConfig(preprocess="psychic")
        with pytest.raises(ValueError):
            FixConfig(rounds=(0,))


class TestFitting:
    @pytest.fixture
    def fixer(self, fresh_hnsw):
        return NGFixer(fresh_hnsw, FixConfig(
            k=8, hard_ratio=3.0, max_extra_degree=10, preprocess="exact"))

    def test_fit_adds_extra_edges(self, fixer, tiny_ds):
        before = fixer.adjacency.n_extra_edges()
        fixer.fit(tiny_ds.train_queries)
        assert fixer.adjacency.n_extra_edges() > before
        assert fixer.adjacency.n_base_edges() == fixer.index.adjacency.n_base_edges()

    def test_records_per_query(self, fixer, tiny_ds):
        fixer.fit(tiny_ds.train_queries[:10])
        assert len(fixer.records) == 10
        assert all(r.round_k == 8 for r in fixer.records)

    def test_two_rounds(self, fresh_hnsw, tiny_ds):
        fixer = NGFixer(fresh_hnsw, FixConfig(
            k=8, rounds=(8, 4), preprocess="exact"))
        fixer.fit(tiny_ds.train_queries[:10])
        assert {r.round_k for r in fixer.records} == {8, 4}

    def test_stats_totals(self, fixer, tiny_ds):
        fixer.fit(tiny_ds.train_queries[:20])
        stats = fixer.stats()
        assert stats["queries_fixed"] == 20
        assert stats["total_edges_added"] == stats["n_extra_edges"] + sum(
            r.edges_evicted for r in fixer.records) - _protected_readds(fixer)
        assert stats["preprocess_seconds"] >= 0
        assert stats["fix_seconds"] > 0

    def test_hard_queries_get_more_edges(self, fixer, tiny_ds):
        """Fig. 13(b): edge count correlates with hardness."""
        fixer.fit(tiny_ds.train_queries)
        hard = [r.edges_added for r in fixer.records if r.unreachable_pairs > 0]
        easy = [r.edges_added for r in fixer.records if r.unreachable_pairs == 0]
        if hard and easy:
            assert np.mean(hard) > np.mean(easy)

    def test_approx_preprocess_runs(self, fresh_hnsw, tiny_ds):
        fixer = NGFixer(fresh_hnsw, FixConfig(
            k=8, preprocess="approx", approx_ef=60))
        fixer.fit(tiny_ds.train_queries[:15])
        assert fixer.adjacency.n_extra_edges() > 0

    def test_fix_query_online(self, fixer, tiny_ds):
        records = fixer.fix_query(tiny_ds.train_queries[0])
        assert len(records) == 1
        assert records[0].query_index == -1

    def test_search_protocol(self, fixer, tiny_ds):
        r = fixer.search(tiny_ds.test_queries[0], k=5, ef=20)
        assert len(r.ids) == 5
        assert fixer.entry_points(tiny_ds.test_queries[0]) == [fixer.entry]
        r2 = fixer.search(tiny_ds.test_queries[0], k=5)
        assert len(r2.ids) == 5


def _protected_readds(fixer):
    # Edges re-added after eviction are counted in both totals; for the tiny
    # suite this term is zero, kept explicit for clarity.
    return 0


class TestHeadlineEffect:
    def test_ngfix_improves_ood_recall_at_fixed_ef(self, tiny_ds, tiny_gt):
        """The paper's core claim at small scale: after fixing with
        historical queries, recall at the same ef improves on unseen test
        queries from the same (OOD) workload."""
        k, ef = 10, 20
        gt_k = tiny_gt.top(k)

        base = HNSW(tiny_ds.base, tiny_ds.metric, M=8, ef_construction=40)
        before = np.vstack([base.search(q, k=k, ef=ef).ids[:k]
                            for q in tiny_ds.test_queries])
        r_before = recall_at_k(before, gt_k.ids)

        fixer = NGFixer(base, FixConfig(k=10, max_extra_degree=12,
                                        preprocess="exact"))
        fixer.fit(tiny_ds.train_queries)
        after = np.vstack([fixer.search(q, k=k, ef=ef).ids[:k]
                           for q in tiny_ds.test_queries])
        r_after = recall_at_k(after, gt_k.ids)
        assert r_after > r_before

    def test_historical_queries_get_perfect_recall(self, tiny_ds, fresh_hnsw,
                                                   tiny_train_gt):
        """Theorem 5 (spirit): after NGFix*+RFix, searching a *historical*
        query with ef >= K_max recovers its full top-k."""
        k = 8
        config = FixConfig(k=k, hard_ratio=3.0, max_extra_degree=24,
                           preprocess="exact")
        fixer = NGFixer(fresh_hnsw, config)
        fixer.fit(tiny_ds.train_queries)
        ef = config.k_max()
        found = np.vstack([fixer.search(q, k=k, ef=ef).ids[:k]
                           for q in tiny_ds.train_queries])
        recall = recall_at_k(found, tiny_train_gt.top(k).ids)
        assert recall > 0.97

    def test_evaluate_through_harness(self, tiny_ds, fresh_hnsw, tiny_gt):
        fixer = NGFixer(fresh_hnsw, FixConfig(k=8, preprocess="exact"))
        fixer.fit(tiny_ds.train_queries)
        point = evaluate_index(fixer, tiny_ds.test_queries, tiny_gt, k=8, ef=30)
        assert point.recall > 0.7
        assert point.ndc_per_query > 0
