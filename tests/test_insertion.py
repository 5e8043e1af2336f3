"""Construction on the native core: one insertion routine behind build,
``add`` and WAL replay, entered at a live navigating node.

The routine (``repro.graphs.insertion.BottomLayer``) searches the graph it
is writing — natively, through the store's slab — and selects with the
occlusion rule's native executor; insertion order and algorithm are the
reference's, so a build on either executor is the same graph up to float32
near-ties.  The dead-entry defect (an insert that starts from a compacted
node links to it alone) is held off by a property test over
insert/delete/compact interleaves.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fixer import FixConfig, NGFixer
from repro.core.maintenance import IndexMaintainer
from repro.distances import DistanceComputer
from repro.durability import recover
from repro.durability.recovery import ReplayableIndex
from repro.evalx.ground_truth import compute_ground_truth
from repro.graphs import HNSW, native
from repro.graphs import base as graphs_base
from repro.graphs import insertion
from repro.graphs.search import VisitedTable
from repro.obs import OBS
from repro.store import VectorStore
from tests.conftest import reference_executor

needs_native = pytest.mark.skipif(
    not native.enabled(),
    reason=f"no native executor: {native.status()['reason']}")


def _edges(adjacency) -> list[list[int]]:
    return [adjacency.base_neighbors(u) for u in range(adjacency.n_nodes)]


def _reachable(adjacency, entry: int) -> set[int]:
    seen, queue = {entry}, deque([entry])
    while queue:
        for v in adjacency.neighbors(queue.popleft()).tolist():
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def _recall(index, queries, truth, k=10, ef=40) -> tuple[float, int]:
    index.dc.reset_ndc()
    hits = sum(len(set(index.search(q, k=k, ef=ef).ids.tolist())
                   & set(row[:k].tolist()))
               for q, row in zip(queries, truth))
    return hits / (k * len(queries)), index.dc.reset_ndc()


# -- one seed, two executors ---------------------------------------------------

@needs_native
class TestBothExecutorsBuildTheSameGraph:
    def test_edges_equal_or_inside_the_band(self, tiny_ds, tiny_gt):
        def build():
            index = HNSW(tiny_ds.base, tiny_ds.metric, M=8,
                         ef_construction=40)
            for row in tiny_ds.train_queries[:20]:
                index.insert(row)
            return index

        with reference_executor():
            want = build()
        got = build()
        assert want.dc.ndc == pytest.approx(got.dc.ndc, rel=0.02)
        if _edges(want.adjacency) == _edges(got.adjacency):
            assert want.medoid() == got.medoid()
            return
        # A float32 near-tie between the executors' reductions flipped a
        # decision somewhere: the graphs must still be the same quality.
        queries = tiny_ds.test_queries
        recall_want, ndc_want = _recall(want, queries, tiny_gt.ids)
        recall_got, ndc_got = _recall(got, queries, tiny_gt.ids)
        assert abs(recall_want - recall_got) <= 0.02
        assert ndc_got == pytest.approx(ndc_want, rel=0.05)

    def test_tie_free_integer_data_gives_equal_edge_sets(self):
        """Coordinates on a coarse integer grid: every distance is exact in
        float32 on both executors (ties resolve by id on both), so not even
        a near-tie can separate the graphs."""
        rng = np.random.default_rng(11)
        data = rng.integers(-8, 9, size=(150, 6)).astype(np.float32)

        def build():
            index = HNSW(data[:120], "l2", M=4, ef_construction=24)
            for row in data[120:]:
                index.insert(row)
            return index

        with reference_executor():
            want = build()
        got = build()
        assert _edges(want.adjacency) == _edges(got.adjacency)
        assert want.dc.ndc == got.dc.ndc


# -- build, add and replay are one routine -------------------------------------

def _vectors(n, dim=8, seed=0):
    return np.random.default_rng(seed).standard_normal((n, dim)).astype(
        np.float32)


class TestReplayEqualsLive:
    def test_recovered_inserts_are_the_live_stores(self, tmp_path):
        """Snapshot, then inserts: the recovered store replays them through
        ``ReplayableIndex`` and must rebuild the live store's edges."""
        live = VectorStore(dim=8, seed=0, M=4, ef_construction=24,
                           scheduler_mode="inline", wal_dir=tmp_path)
        live.add(_vectors(60))
        live.build()
        live.checkpoint()
        for row in _vectors(25, seed=1):
            live.add(row)
        live.delete([3])
        live.add(_vectors(4, seed=2))  # one batch: one re-election at its end
        live.close()
        recovered, report = recover(tmp_path, attach_wal=False)
        assert report.consistent and report.replayed["insert"] == 26
        assert isinstance(recovered._fixer.index, ReplayableIndex)
        assert (_edges(recovered._fixer.adjacency)
                == _edges(live._fixer.adjacency))
        assert recovered._fixer.entry == live._fixer.entry

    def test_hnsw_has_no_second_copy(self):
        assert not hasattr(HNSW, "_select_neighbors")
        assert not hasattr(HNSW, "_shrink")
        assert ReplayableIndex._insert_bottom is HNSW._insert_bottom
        assert ReplayableIndex.insert is HNSW.insert
        assert ReplayableIndex.medoid is HNSW.medoid


# -- no silent fall back to the slow path ---------------------------------------

@needs_native
def test_build_adds_and_fit_never_fall_back_for_the_graph(tiny_ds):
    OBS.enable()
    try:
        OBS.reset()
        store = VectorStore(dim=tiny_ds.base.shape[1], metric=tiny_ds.metric,
                            M=8, ef_construction=40, seed=3,
                            fix_config=FixConfig(k=5, preprocess="approx"))
        store.add(tiny_ds.base[:300])
        store.build()
        for row in tiny_ds.base[300:350]:
            store.add(row)
        store.fit_history(tiny_ds.train_queries[:30])
        store.observe(tiny_ds.train_queries[31])
        snapshot = OBS.snapshot()
    finally:
        OBS.disable()
        OBS.reset()
    assert snapshot["search_native_queries"] > 350
    assert snapshot["search_native_fallback_graph"] == 0
    assert snapshot["search_native_fallbacks"] == 0


# -- the dead entry (ROADMAP 1c) ------------------------------------------------

_STEPS = st.lists(st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 2**16)),
    st.tuples(st.just("delete"), st.integers(0, 10**6)),
    st.tuples(st.just("compact"))), min_size=1, max_size=25)


def _maintained(kind: str, n: int = 12) -> IndexMaintainer:
    """A maintainer over ``n`` rows whose degree budget (2M >= every row the
    run can reach) and beam never bind: each insert links to everything its
    search reaches, so the live graph stays connected unless an insert
    started somewhere dead."""
    data = _vectors(n, dim=4, seed=7)
    hnsw = HNSW(data, "l2", M=24, ef_construction=64)
    if kind == "replayable":
        index = ReplayableIndex(data, "l2", hnsw.medoid(), M=24,
                                ef_construction=64)
        for u, neigh in enumerate(_edges(hnsw.adjacency)):
            index.adjacency.set_base_neighbors(u, neigh)
    else:
        index = hnsw
    fixer = NGFixer(index, FixConfig(k=3, rfix=False))
    return IndexMaintainer(fixer, np.empty((0, 4), dtype=np.float32),
                           compact_threshold=0.3)


@pytest.mark.parametrize("kind", ["hnsw", "replayable"])
@settings(max_examples=60, deadline=None)
@given(steps=_STEPS, entry_first=st.booleans())
def test_every_live_row_reachable_after_any_interleave(kind, steps,
                                                       entry_first):
    maintainer = _maintained(kind)
    fixer, adjacency = maintainer.fixer, maintainer.fixer.adjacency
    if entry_first:  # the defect's own recipe: kill where inserts start
        steps = [("delete", 0), ("delete", fixer.entry), ("compact",)] + steps
    acked = []
    for step in steps:
        dead = adjacency.excluded_ids() or set()
        live = [i for i in range(fixer.dc.size) if i not in dead]
        if step[0] == "insert":
            row = np.random.default_rng(step[1]).standard_normal(4)
            acked += maintainer.insert(row.astype(np.float32))
        elif step[0] == "delete":
            if len(live) > 8:  # compaction's repair wants 2k live rows
                maintainer.delete([live[step[1] % len(live)]])
        else:
            maintainer.compact()
        dead = adjacency.excluded_ids() or set()
        assert fixer.entry not in adjacency.removed
        reached = _reachable(adjacency, fixer.entry)
        live_now = set(range(fixer.dc.size)) - dead
        assert live_now <= reached, (
            f"unreachable from entry {fixer.entry}: "
            f"{sorted(live_now - reached)} (acked inserts {acked})")
        for u in live_now:
            assert not set(adjacency.base_neighbors(u)) & adjacency.removed


def test_recall_survives_the_entrys_deletion(tiny_ds):
    """At a realistic budget: delete id 0 and the medoid, compact, insert a
    tenth of the corpus — the late rows must be findable."""
    index = HNSW(tiny_ds.base[:300], tiny_ds.metric, M=8, ef_construction=40)
    fixer = NGFixer(index, FixConfig(k=5, rfix=False))
    maintainer = IndexMaintainer(fixer, np.empty((0, index.dim)),
                                 compact_threshold=0.9)
    maintainer.delete([0, fixer.entry])
    maintainer.compact()
    late = maintainer.insert(tiny_ds.base[300:340])
    assert set(late) <= _reachable(fixer.adjacency, fixer.entry)
    gone = fixer.adjacency.removed
    alive = np.array([i for i in range(fixer.dc.size) if i not in gone])
    queries = tiny_ds.base[300:340] + 0.01
    truth = compute_ground_truth(fixer.dc.data[alive], queries, 1,
                                 tiny_ds.metric)
    found = [int(fixer.search(q, k=1, ef=40).ids[0]) for q in queries]
    assert np.mean(alive[truth.ids[:, 0]] == found) >= 0.9


# -- the navigating node --------------------------------------------------------

class TestNavigatingNode:
    def test_centroid_is_a_running_sum(self):
        data = _vectors(40, dim=6, seed=3)
        dc = DistanceComputer(data[:10], "l2")
        before = dc.centroid()
        np.testing.assert_allclose(before, data[:10].mean(axis=0), rtol=1e-6)
        for start in range(10, 40, 7):
            dc.append(data[start:start + 7])
        np.testing.assert_allclose(dc.centroid(), dc.data.mean(axis=0),
                                   rtol=1e-5, atol=1e-7)
        untouched = DistanceComputer(data[:10], "cosine")
        untouched.append(data[10:20])  # never asked: summed on first use
        np.testing.assert_allclose(untouched.centroid(),
                                   untouched.data.mean(axis=0), rtol=1e-5,
                                   atol=1e-7)

    def test_an_add_never_scans_every_row(self, tiny_ds, monkeypatch):
        index = HNSW(tiny_ds.base[:300], tiny_ds.metric, M=8,
                     ef_construction=40)
        fixer = NGFixer(index, FixConfig(k=5))
        maintainer = IndexMaintainer(fixer, np.empty((0, index.dim)))
        assert index.medoid() == fixer.entry  # the build's exact scan

        def no_scan(*args, **kwargs):
            raise AssertionError("exact medoid scan on the insert path")

        monkeypatch.setattr(insertion, "medoid_id", no_scan)
        monkeypatch.setattr(graphs_base, "medoid_id", no_scan)
        for row in tiny_ds.base[300:360]:
            maintainer.insert(row)
        monkeypatch.undo()
        exact = graphs_base.medoid_id(index.dc)
        q = index.dc.prepare_query(index.dc.centroid())
        d_exact, d_found = index.dc.to_query(np.array([exact, fixer.entry]), q)
        assert fixer.entry == index.medoid()
        assert d_found <= d_exact * 1.05 + 1e-6

    def test_a_dead_medoid_is_replaced_by_a_live_row(self, tiny_ds):
        index = HNSW(tiny_ds.base[:200], tiny_ds.metric, M=8,
                     ef_construction=40)
        first = index.medoid()
        index.adjacency.tombstones.add(first)
        second = index.medoid()
        assert second != first
        index.adjacency.remove_node_edges({first, second})
        assert index.medoid() not in {first, second}
        assert index.entry_points(tiny_ds.test_queries[0]) == [index.medoid()]


# -- O(1) appends ---------------------------------------------------------------

class TestCapacityDoubling:
    def test_one_row_appends_copy_logarithmically_often(self):
        dc = DistanceComputer(_vectors(5, dim=3), "l2")
        pinned = dc.data
        snapshot = pinned.copy()
        visited = VisitedTable(5)
        index_like = HNSW(_vectors(5, dim=3), "l2", M=2, ef_construction=4)
        stores = set()
        for i, row in enumerate(_vectors(200, dim=3, seed=1)):
            dc.append(row)
            visited.grow(dc.size)
            index_like.insert(row)
            stores.add((id(dc._rows), id(visited._stamps),
                        id(index_like.adjacency._slab)))
            assert dc.data.flags.c_contiguous and dc.size == 6 + i
            assert native.dense(dc.data, np.float32, 2)
        assert len(stores) <= 8  # 5 -> 205 rows is six doublings
        np.testing.assert_array_equal(pinned, snapshot)  # prefix never rewritten
        np.testing.assert_array_equal(dc.data[:5], snapshot)
        assert index_like.adjacency.n_nodes == 205
        assert index_like.adjacency.freeze().n_nodes == 205
