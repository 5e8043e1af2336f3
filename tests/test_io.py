"""Index persistence: save/load roundtrips.

A saved index is the edge store's own arrays; every test here that
compares a loaded index with its source does so bit for bit — each row's
base list, its extras with their EH tags (``float.hex``, ``inf`` included),
``degree``, ``base_count``, tombstones, removed ids, the entry and the
payloads — and searches both on each executor.
"""

import contextlib
import json

import numpy as np
import pytest

from repro import FixConfig, NGFixer, VectorStore, load_index, save_index
from repro.core.maintenance import IndexMaintainer
from repro.durability import recover
from repro.graphs import HNSW
from repro.graphs.adjacency import AdjacencyStore
from repro.io import FrozenIndex
from tests.conftest import reference_executor
from tests.test_twin_build import _BUILDS


def _state(adjacency) -> tuple:
    """Every value a saved graph carries, as plain comparable values."""
    return ([adjacency.base_neighbors(u) for u in range(adjacency.n_nodes)],
            [[(v, float(eh).hex())
              for v, eh in adjacency.extra_neighbors(u).items()]
             for u in range(adjacency.n_nodes)],
            adjacency._degree[:adjacency.n_nodes].tolist(),
            adjacency._base_count[:adjacency.n_nodes].tolist(),
            sorted(adjacency.tombstones), sorted(adjacency.removed))


def _same_search(a, b, queries, k=5, ef=30):
    """Equal ids and NDC from ``a`` and ``b``, natively and on the
    reference executor."""
    for executor in (contextlib.nullcontext, reference_executor):
        with executor():
            left, right = (x.search_batch(queries, k, ef) for x in (a, b))
        assert [r.ids.tolist() for r in left] == [r.ids.tolist() for r in right]
        assert [r.ndc for r in left] == [r.ndc for r in right]
        assert {r.executor for r in left} == {r.executor for r in right}


class TestRoundtrip:
    def test_hnsw_roundtrip_identical_search(self, tiny_ds, shared_hnsw,
                                             tmp_path):
        path = save_index(shared_hnsw, tmp_path / "hnsw")
        loaded = load_index(path)
        assert isinstance(loaded, FrozenIndex)
        for q in tiny_ds.test_queries[:10]:
            a = shared_hnsw.search(q, k=5, ef=30)
            b = loaded.search(q, k=5, ef=30)
            assert a.ids.tolist() == b.ids.tolist()

    def test_npz_suffix_appended(self, shared_hnsw, tmp_path):
        path = save_index(shared_hnsw, tmp_path / "noext")
        assert path.suffix == ".npz"
        assert path.exists()

    def test_fixer_roundtrip_preserves_extra_edges(self, tiny_ds, fresh_hnsw,
                                                   tmp_path):
        fixer = NGFixer(fresh_hnsw, FixConfig(k=8, preprocess="exact"))
        fixer.fit(tiny_ds.train_queries[:30])
        path = save_index(fixer, tmp_path / "fixed")
        loaded = load_index(path)
        assert (loaded.adjacency.n_extra_edges()
                == fixer.adjacency.n_extra_edges())
        assert loaded.entry == fixer.entry
        # EH tags survive (including infinities from RFix)
        for u in range(loaded.adjacency.n_nodes):
            assert (loaded.adjacency.extra_neighbors(u)
                    == fixer.adjacency.extra_neighbors(u))

    def test_tombstones_survive(self, tiny_ds, fresh_hnsw, tmp_path):
        fresh_hnsw.adjacency.tombstones.update({3, 7})
        path = save_index(fresh_hnsw, tmp_path / "tomb")
        loaded = load_index(path)
        assert loaded.adjacency.tombstones == {3, 7}
        result = loaded.search(tiny_ds.base[3], k=5, ef=30)
        assert 3 not in result.ids

    def test_loaded_index_supports_further_fixing(self, tiny_ds, fresh_hnsw,
                                                  tmp_path):
        path = save_index(fresh_hnsw, tmp_path / "base")
        loaded = load_index(path)
        fixer = NGFixer(loaded, FixConfig(k=8, preprocess="exact"))
        fixer.fit(tiny_ds.train_queries[:10])
        assert fixer.adjacency.n_extra_edges() > 0

    def test_save_rejects_unknown_object(self, tmp_path):
        with pytest.raises(TypeError):
            save_index("not an index", tmp_path / "x")

    def test_load_rejects_bad_version(self, shared_hnsw, tmp_path):
        path = save_index(shared_hnsw, tmp_path / "v")
        payload = dict(np.load(path))
        payload["meta"] = np.frombuffer(
            json.dumps({"format_version": 99}).encode(), dtype=np.uint8)
        np.savez(path, **payload)
        with pytest.raises(ValueError, match="format"):
            load_index(path)


class TestTheFileIsTheStore:
    @pytest.mark.parametrize("family", sorted(_BUILDS))
    def test_every_family_round_trips_bit_for_bit(self, tiny_ds, family,
                                                  tmp_path):
        index = _BUILDS[family](tiny_ds)
        index.adjacency.tombstones.update({2, 9})
        loaded = load_index(save_index(index, tmp_path / family))
        assert _state(loaded.adjacency) == _state(index.adjacency)
        assert loaded.entry == index.medoid()
        _same_search(index, loaded, tiny_ds.test_queries[:12])

    def test_fitted_and_compacted_hnsw_round_trips(self, tiny_ds, fresh_hnsw,
                                                   tmp_path):
        fixer = NGFixer(fresh_hnsw, FixConfig(k=5, max_extra_degree=4,
                                              rfix_search_ef=1))
        fixer.fit(tiny_ds.train_queries[:40])
        maintainer = IndexMaintainer(fixer, tiny_ds.train_queries[40:60],
                                     compact_threshold=0.9, seed=0)
        maintainer.delete([0, 5, fixer.entry, 17])
        maintainer.compact()
        maintainer.delete([3, 11])
        adjacency = fixer.adjacency
        tags = [eh for u in range(adjacency.n_nodes)
                for eh in adjacency.extra_neighbors(u).values()]
        assert float("inf") in tags and np.isfinite(tags).any()
        assert adjacency.removed and adjacency.tombstones

        loaded = load_index(save_index(fixer, tmp_path / "fit"))
        assert _state(loaded.adjacency) == _state(adjacency)
        assert loaded.entry == fixer.entry
        refixer = NGFixer(loaded, fixer.config)
        refixer.entry = loaded.entry  # as VectorStore adopts a loaded index
        _same_search(fixer, refixer, tiny_ds.test_queries)

    def test_one_row_without_edges(self, tiny_ds, tmp_path):
        index = HNSW(tiny_ds.base[:1], tiny_ds.metric, M=8, ef_construction=40)
        assert index.adjacency.n_base_edges() == 0
        path = save_index(index, tmp_path / "one")
        with np.load(path) as saved:
            assert saved["slab"].shape == saved["eh"].shape == (1, 0)
        loaded = load_index(path)
        assert _state(loaded.adjacency) == _state(index.adjacency)
        _same_search(index, loaded, tiny_ds.test_queries[:3], k=1, ef=10)
        loaded.adjacency.grow(1)  # the zero-width slab widens on a write
        assert loaded.adjacency.add_base_edge(0, 1)
        assert loaded.adjacency.neighbors(0).tolist() == [1]

    def test_file_holds_the_store_arrays(self, fresh_hnsw, tmp_path):
        adjacency = fresh_hnsw.adjacency
        adjacency.add_extra_edge(4, 300, 2.5)
        adjacency.add_extra_edge(4, 301, float("inf"))
        n = adjacency.n_nodes
        width = int(adjacency._degree[:n].max())
        with np.load(save_index(fresh_hnsw, tmp_path / "raw")) as saved:
            assert sorted(saved.files) == sorted(
                ["data", "slab", "eh", "degree", "base_count", "tombstones",
                 "removed", "meta", "payloads"])
            for name, array in adjacency.arrays().items():
                assert saved[name].dtype == array.dtype, name
                np.testing.assert_array_equal(saved[name], array, err_msg=name)
            assert saved["slab"].shape == (n, width)
            meta = json.loads(bytes(saved["meta"]).decode())
        assert meta["format_version"] == 2

    def test_load_calls_no_edge_mutator(self, tiny_ds, fresh_hnsw, tmp_path,
                                        monkeypatch):
        fixer = NGFixer(fresh_hnsw, FixConfig(k=8, preprocess="exact"))
        fixer.fit(tiny_ds.train_queries[:20])
        path = save_index(fixer, tmp_path / "quiet")

        def refuse(*args, **kwargs):
            raise AssertionError("load_index called an edge mutator")

        for name in ("set_base_neighbors", "add_base_edge", "add_extra_edge",
                     "remove_extra_edge", "evict_lowest_eh", "_write",
                     "_record", "grow", "remove_node_edges"):
            monkeypatch.setattr(AdjacencyStore, name, refuse)
        loaded = load_index(path)
        assert _state(loaded.adjacency) == _state(fixer.adjacency)

    def test_payloads_round_trip(self, shared_hnsw, tmp_path):
        payloads = {0: {"url": "a"}, 7: [1, 2.5, None], 399: "z"}
        loaded = load_index(save_index(shared_hnsw, tmp_path / "p", payloads))
        assert loaded.payloads == payloads
        assert load_index(save_index(shared_hnsw, tmp_path / "q")).payloads == {}

    def test_format_one_is_refused(self, shared_hnsw, tmp_path):
        path = save_index(shared_hnsw, tmp_path / "v1")
        payload = dict(np.load(path))
        payload["meta"] = np.frombuffer(json.dumps(
            {"format_version": 1, "metric": "cosine", "entry": 0}).encode(),
            dtype=np.uint8)
        np.savez(path, **payload)
        with pytest.raises(ValueError, match="unsupported index format 1"):
            load_index(path)


def _tamper(path, edit):
    """Rewrite the saved file at ``path`` with ``edit`` applied to a dict
    of its arrays."""
    with np.load(path) as saved:
        arrays = {name: saved[name].copy() for name in saved.files}
    edit(arrays)
    np.savez(path, **arrays)


def _set(name, value):
    def edit(arrays):
        arrays[name] = value(arrays)
    return edit


def _meta_entry(entry):
    def edit(arrays):
        meta = json.loads(bytes(arrays["meta"]).decode())
        meta["entry"] = entry
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), np.uint8)
    return edit


def _first_live(arrays, value):
    slab = arrays["slab"]
    slab[0, 0] = value
    return slab


_CORRUPTIONS = {
    "slab dtype": (_set("slab", lambda a: a["slab"].astype(np.int64)), "slab"),
    # Rows are counted against the vectors, so a short slab names ``data``.
    "slab rows": (_set("slab", lambda a: a["slab"][:-1]), "data"),
    "eh shape": (_set("eh", lambda a: a["eh"][:, :-1]), "eh"),
    "eh dtype": (_set("eh", lambda a: a["eh"].astype(np.float32)), "eh"),
    "degree dtype": (_set("degree", lambda a: a["degree"].astype(np.int64)),
                     "degree"),
    "base_count shape": (_set("base_count", lambda a: a["base_count"][:-1]),
                         "base_count"),
    "data rows": (_set("data", lambda a: a["data"][:-1]), "data"),
    "data dtype": (_set("data", lambda a: a["data"].astype(np.float64)),
                   "data"),
    "degree above width": (_set("degree", lambda a: a["degree"] + np.int32(
        a["slab"].shape[1] + 1 - a["degree"].max())), "degree"),
    "negative degree": (_set("degree", lambda a: a["degree"] - np.int32(
        a["degree"].max() + 1)), "degree"),
    "base_count above degree": (_set("base_count", lambda a: a["degree"] + 1),
                                "base_count"),
    "negative base_count": (_set("base_count", lambda a: a["base_count"] * 0
                                 - 1), "base_count"),
    "slab id past n": (_set("slab", lambda a: _first_live(a, 10_000)), "slab"),
    "negative slab id": (_set("slab", lambda a: _first_live(a, -1)), "slab"),
    "tombstone past n": (_set("tombstones", lambda a: np.array(
        [3, 10_000], np.int64)), "tombstones"),
    "negative tombstone": (_set("tombstones", lambda a: np.array(
        [-1], np.int64)), "tombstones"),
    "tombstones shape": (_set("tombstones", lambda a: np.zeros(
        (1, 1), np.int64)), "tombstones"),
    "removed past n": (_set("removed", lambda a: np.array([400], np.int64)),
                       "removed"),
    "removed dtype": (_set("removed", lambda a: np.array([1.0])), "removed"),
    "entry past n": (_meta_entry(10_000), "entry"),
    "negative entry": (_meta_entry(-1), "entry"),
    "payloads not an object": (_set("payloads", lambda a: np.frombuffer(
        b"[1, 2]", np.uint8)), "payloads"),
}


class TestCorruptFileRefused:
    """Every value read from the file is checked before the index is
    handed out: a corrupt file fails at load, naming the field, never
    at its first search."""

    @pytest.mark.parametrize("corruption", sorted(_CORRUPTIONS))
    def test_refused_naming_the_field(self, shared_hnsw, tmp_path,
                                      corruption):
        edit, field = _CORRUPTIONS[corruption]
        path = save_index(shared_hnsw, tmp_path / "bad")
        load_index(path)  # sound before the edit
        _tamper(path, edit)
        with pytest.raises(ValueError, match=f"^{field}"):
            load_index(path)

    def test_an_out_of_range_base_id_fails_at_load(self, tiny_ds, tmp_path):
        index = HNSW(tiny_ds.base[:200], tiny_ds.metric, M=8,
                     ef_construction=40)
        path = save_index(index, tmp_path / "oob")
        _tamper(path, _set("slab", lambda a: _first_live(a, 10_000)))
        with pytest.raises(ValueError, match="slab: an id outside"):
            load_index(path)

    def test_an_untouched_file_keeps_loading(self, shared_hnsw, tmp_path):
        path = save_index(shared_hnsw, tmp_path / "fine")
        _tamper(path, lambda arrays: None)
        assert (_state(load_index(path).adjacency)
                == _state(shared_hnsw.adjacency))


class TestStoreFiles:
    def test_store_save_load_carries_payloads(self, tmp_path):
        rng = np.random.default_rng(0)
        store = VectorStore(dim=8, seed=0, scheduler_mode="inline")
        ids = store.add(rng.standard_normal((40, 8)).astype(np.float32),
                        payloads=[{"i": i} for i in range(40)])
        store.build()
        store.delete([ids[3]])
        path = store.save(tmp_path / "store")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["store.npz"]
        loaded = VectorStore.load(path)
        index, source = loaded._fixer.index, store._fixer.index
        assert _state(index.adjacency) == _state(source.adjacency)
        assert loaded._payloads == {i: {"i": i} for i in ids if i != ids[3]}
        queries = rng.standard_normal((6, 8)).astype(np.float32)
        _same_search(source, index, queries)
        store.close()
        loaded.close()

    def test_checkpoint_recover_carries_payloads(self, tmp_path):
        rng = np.random.default_rng(1)
        wal_dir = tmp_path / "wal"
        store = VectorStore(dim=8, seed=0, wal_dir=wal_dir,
                            scheduler_mode="inline")
        store.add(rng.standard_normal((40, 8)).astype(np.float32),
                  payloads=[f"p{i}" for i in range(40)])
        store.build()
        store.delete([5])
        store.checkpoint()
        store.checkpoint()
        names = sorted(p.name for p in wal_dir.glob("snapshot-*"))
        assert names == ["snapshot-00000001.manifest.json",
                         "snapshot-00000001.npz",
                         "snapshot-00000002.manifest.json",
                         "snapshot-00000002.npz"]
        source, entry = store._fixer.index, store._fixer.entry
        store.close()
        recovered, report = recover(wal_dir)
        assert report.consistent, report.errors
        assert report.replayed["insert"] == 0
        index = recovered._fixer.index
        assert _state(index.adjacency) == _state(source.adjacency)
        assert index.entry == entry
        assert recovered._payloads == {i: f"p{i}" for i in range(40)
                                       if i != 5}
        _same_search(source, index,
                     rng.standard_normal((6, 8)).astype(np.float32))
        recovered.close()
