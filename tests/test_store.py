"""VectorStore facade: lifecycle, payloads, persistence."""

import dataclasses
import inspect
import pathlib
import re

import numpy as np
import pytest

from repro.cluster import ClusterRouter
from repro.config import StoreConfig
from repro.durability import recover
from repro.store import VectorStore
from tests.conftest import NONDEFAULT_STORE_SETTINGS


@pytest.fixture
def store(tiny_ds):
    s = VectorStore(dim=tiny_ds.dim, metric=tiny_ds.metric, M=8,
                    ef_construction=40)
    s.add(tiny_ds.base, payloads=[{"i": i} for i in range(tiny_ds.n)])
    s.build()
    return s


class TestLifecycle:
    def test_add_before_build_assigns_sequential_ids(self, tiny_ds):
        s = VectorStore(dim=tiny_ds.dim, metric=tiny_ds.metric)
        ids1 = s.add(tiny_ds.base[:10])
        ids2 = s.add(tiny_ds.base[10:20])
        assert ids1 == list(range(10))
        assert ids2 == list(range(10, 20))
        assert len(s) == 20
        assert not s.is_built

    def test_build_requires_vectors(self):
        with pytest.raises(RuntimeError, match="add"):
            VectorStore(dim=4).build()

    def test_build_idempotent(self, store):
        assert store.build() is store

    def test_dim_enforced(self, tiny_ds):
        s = VectorStore(dim=8)
        with pytest.raises(ValueError, match="dimension"):
            s.add(tiny_ds.base)

    def test_search_returns_payloads(self, store, tiny_ds):
        hits = store.search(tiny_ds.base[5], k=3)
        assert hits[0][0] == 5
        assert hits[0][2] == {"i": 5}
        assert hits[0][1] == pytest.approx(0.0, abs=1e-5)

    def test_search_autobuilds(self, tiny_ds):
        s = VectorStore(dim=tiny_ds.dim, metric=tiny_ds.metric, M=6,
                        ef_construction=30)
        s.add(tiny_ds.base[:100])
        hits = s.search(tiny_ds.base[0], k=1)
        assert hits[0][0] == 0

    def test_payload_length_mismatch(self, tiny_ds):
        s = VectorStore(dim=tiny_ds.dim)
        with pytest.raises(ValueError, match="payloads"):
            s.add(tiny_ds.base[:5], payloads=[{}] * 4)


class TestFixing:
    def test_fit_history_improves_recall(self, store, tiny_ds, tiny_gt):
        from repro.evalx import recall_at_k

        def measure():
            found = np.vstack([
                [h[0] for h in store.search(q, k=10, ef=16)]
                for q in tiny_ds.test_queries])
            return recall_at_k(found, tiny_gt.top(10).ids)

        before = measure()
        stats = store.fit_history(tiny_ds.train_queries)
        assert stats["n_extra_edges"] > 0
        assert measure() >= before

    def test_observe_single_query(self, store, tiny_ds):
        store.observe(tiny_ds.train_queries[0])
        assert store.stats()["total_edges_added"] >= 0


class TestInsertDelete:
    def test_incremental_add_after_build(self, tiny_ds):
        s = VectorStore(dim=tiny_ds.dim, metric=tiny_ds.metric, M=6,
                        ef_construction=30)
        s.add(tiny_ds.base[:200])
        s.build()
        new_ids = s.add(tiny_ds.base[200:210], payloads=[{"new": True}] * 10)
        assert new_ids == list(range(200, 210))
        hits = s.search(tiny_ds.base[205], k=1, ef=30)
        assert hits[0][0] == 205
        assert hits[0][2] == {"new": True}

    def test_delete_removes_from_results_and_payloads(self, store, tiny_ds):
        victim = store.search(tiny_ds.test_queries[0], k=1, ef=20)[0][0]
        store.delete([victim])
        hits = store.search(tiny_ds.test_queries[0], k=5, ef=20)
        assert victim not in [h[0] for h in hits]
        assert store.get_payload(victim) is None

    def test_delete_before_build_rejected(self, tiny_ds):
        s = VectorStore(dim=tiny_ds.dim)
        s.add(tiny_ds.base[:5])
        with pytest.raises(RuntimeError):
            s.delete([0])


class TestPersistence:
    def test_save_load_roundtrip(self, store, tiny_ds, tmp_path):
        store.fit_history(tiny_ds.train_queries[:20])
        path = store.save(tmp_path / "store")
        loaded = VectorStore.load(path)
        a = store.search(tiny_ds.test_queries[0], k=5, ef=30)
        b = loaded.search(tiny_ds.test_queries[0], k=5, ef=30)
        assert [h[0] for h in a] == [h[0] for h in b]
        assert b[0][2] == a[0][2]  # payloads survive

    def test_loaded_store_supports_further_fixing(self, store, tiny_ds,
                                                  tmp_path):
        path = store.save(tmp_path / "s2")
        loaded = VectorStore.load(path)
        stats = loaded.fit_history(tiny_ds.train_queries[:10])
        assert stats["queries_fixed"] == 10

    def test_save_before_build_rejected(self, tmp_path):
        with pytest.raises(RuntimeError):
            VectorStore(dim=4).save(tmp_path / "x")

    def test_stats(self, store):
        s = store.stats()
        assert s["built"]
        assert s["payloads"] == 400


class TestBeamWidth:
    """``beam_width`` widens block searches only: a lone ``search`` on the
    compressed route walks width 1 at any setting."""

    def test_governs_blocks_not_single_searches(self, tiny_ds):
        stores = {}
        for width in (1, 8):
            store = VectorStore(dim=tiny_ds.dim, metric=tiny_ds.metric, M=8,
                                ef_construction=40, seed=3, compressed=True,
                                pq_ks=16, beam_width=width)
            store.add(tiny_ds.base)
            store.build()
            stores[width] = store
        for query in tiny_ds.test_queries[:20]:
            one, wide = (stores[w].search(query, k=10, ef=40) for w in (1, 8))
            assert one == wide
        scored = {}
        for width, store in stores.items():
            before = store.searcher.adc_scored
            store.search_batch(tiny_ds.test_queries[:20], k=10, ef=40)
            scored[width] = store.searcher.adc_scored - before
        assert scored[1] != scored[8]


class TestSettingsDocs:
    """The store's settings are one list: the dataclass's fields, what each
    entry point accepts and what the docs name are the same set, and only
    the dataclass spells them."""

    FIELDS = [f.name for f in dataclasses.fields(StoreConfig)]
    LOCATIONS = {"wal_dir", "memmap_path"}

    def test_constructor_keywords_are_the_fields_plus_locations(self):
        params = inspect.signature(VectorStore.__init__).parameters
        named = {name for name, p in params.items()
                 if p.kind is not p.VAR_KEYWORD} - {"self"}
        assert named == {"dim", "metric"} | self.LOCATIONS
        assert params["metric"].default == StoreConfig.metric
        store = VectorStore(**NONDEFAULT_STORE_SETTINGS)
        assert store.config == StoreConfig(**NONDEFAULT_STORE_SETTINGS)
        with pytest.raises(TypeError, match="serving"):
            VectorStore(dim=8, serving=False)

    def test_docstring_documents_every_keyword(self):
        def headers(cls, section):
            documented = inspect.getdoc(cls).split(section, 1)[1]
            return {name.strip()
                    for line in re.findall(r"^([\w, ]+):$", documented, re.M)
                    for name in line.split(",")}

        assert headers(StoreConfig, "Fields") == set(self.FIELDS)
        assert headers(VectorStore, "Parameters") == self.LOCATIONS

    @pytest.mark.parametrize("entry", [
        VectorStore.__init__, VectorStore.load, recover, ClusterRouter],
        ids=["VectorStore", "VectorStore.load", "recover", "ClusterRouter"])
    def test_no_entry_point_respells_a_field(self, entry):
        """Only ``StoreConfig`` names a setting: an entry point forwards
        ``**settings`` to it, so a second default cannot drift."""
        params = inspect.signature(entry).parameters
        assert set(params) & set(self.FIELDS) <= {"dim", "metric"}
        assert any(p.kind is p.VAR_KEYWORD for p in params.values())

    def test_durability_doc_lists_every_key(self):
        text = (pathlib.Path(__file__).parent.parent / "docs"
                / "durability.md").read_text()
        listed = text.split("store-config keys: begin", 1)[1].split(
            "store-config keys: end", 1)[0]
        assert re.findall(r"`(\w+)`", listed) == self.FIELDS
