"""Construction on the native core: one insertion routine behind build,
``add`` and WAL replay, entered at a live navigating node.

The routine (``repro.graphs.insertion.BottomLayer``) links rows in one
native call (``repro_insert`` in ``_beam.c``), which must write exactly what
the Python insert (``_insert_bottom``: the native search and prune, the
store's Python mutators) writes — every edge, tag, count, NDC and overlay
record — on every path that reaches it; a refused layout falls back to that
Python insert.  Insertion order and algorithm are the reference executor's,
so a build on either executor is the same graph up to float32 near-ties.
The dead-entry defect (an insert that starts from a compacted node links to
it alone) is held off by a property test over insert/delete/compact
interleaves.
"""

import ast
import contextlib
import pathlib
import tempfile
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fixer import FixConfig, NGFixer
from repro.core.maintenance import IndexMaintainer
from repro.datasets import CrossModalConfig, make_cross_modal_dataset
from repro.distances import DistanceComputer, Metric
from repro.durability import recover
from repro.durability import recovery
from repro.evalx.ground_truth import compute_ground_truth
from repro.graphs import HNSW, native
from repro.graphs import base as graphs_base
from repro.graphs.insertion import BottomLayer
from repro.graphs.pruning import _POOL_CAP
from repro.graphs.search import VisitedTable
from repro.io import FrozenIndex, load_index, save_index
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


# -- the native insert is the Python one ---------------------------------------

@contextlib.contextmanager
def python_insert():
    """Every row on ``_insert_bottom``: the insert as it was before the
    native one, its search and prune still on the native core."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "insert", lambda *args: None)
        yield


class Recorder:
    """An overlay that keeps what it is sent."""

    def __init__(self):
        self.nodes, self.rows = [], []

    def record_node(self, u, row):
        self.nodes.append(u)
        self.rows.append(row.tolist())

    def record_tombstone(self, node):
        self.nodes.append(("tombstone", node))


def _state(index) -> dict:
    """Everything the two inserts must agree on, as plain values."""
    a = index.adjacency
    n = a.n_nodes
    return dict(
        base=_edges(a),
        extra=[[(v, float(eh).hex()) for v, eh in a.extra_neighbors(u).items()]
               for u in range(n)],
        base_count=[a.base_degree(u) for u in range(n)],
        tombstones=sorted(a.tombstones), removed=sorted(a.removed),
        ndc=index.dc.ndc, medoid=index.medoid())


def _twins(flow):
    """``flow()`` on the native insert, then on the Python one."""
    got = flow()
    with python_insert():
        want = flow()
    return got, want


def _ruler_dataset():
    """The repo benchmark's data at seed 7 (laion-sim, 2400 x 48)."""
    return make_cross_modal_dataset("laion-sim", CrossModalConfig(
        n_base=2400, n_train=600, n_test=2000, dim=48, metric=Metric.COSINE,
        seed=7, n_clusters=20, cluster_std=0.12, gap_scale=1.0,
        query_spread=0.4, n_facets=3))


def _grid(n, dim=6, seed=11):
    """Coordinates on a coarse integer grid: every distance is exact on
    both executors, so a fall back to the reference must change nothing."""
    rng = np.random.default_rng(seed)
    return rng.integers(-8, 9, size=(n, dim)).astype(np.float32)


def _fitted_inserts(base, metric, n_base, n_insert, queries, fix_every=10):
    """Build on ``n_base`` rows, fit NGFix (extra edges), then insert the
    rest one by one through the maintainer with a recording overlay
    attached, fixing a query every ``fix_every`` inserts — so rows gain
    extras (and the slab widens) between inserts.  Returns the final state,
    each insert's overlay stream and how many of its mutations hit a row
    with extras: once (the new edge shifted them right) and twice (a
    re-prune kept them)."""
    index = HNSW(base[:n_base], metric, M=6, ef_construction=32)
    fixer = NGFixer(index, FixConfig(k=5, preprocess="approx"))
    fixer.fit(queries[:30])
    maintainer = IndexMaintainer(fixer, np.empty((0, index.dim)))
    adjacency = index.adjacency
    recorder = Recorder()
    adjacency.attach_overlay(recorder)
    streams, with_extras = [], [0, 0]
    for i, row in enumerate(base[n_base:n_base + n_insert]):
        mark = len(recorder.nodes)
        maintainer.insert(row)
        stream = recorder.nodes[mark:]
        streams.append(stream)
        assert recorder.rows[-1] == adjacency.neighbors(stream[-1]).tolist()
        for u in set(stream[1:]):
            if adjacency.extra_degree(u):
                with_extras[min(stream.count(u), 2) - 1] += 1
        if i % fix_every == fix_every - 1:
            fixer.fix_query(queries[30 + i // fix_every])
    return _state(index), streams, with_extras


def _einsum_lanes(a, b):
    """The four-lane order ``repro_insert`` replays for NumPy's float32
    einsum (see ``np_sum`` in ``_beam.c``), in NumPy float32 arithmetic."""
    m, d = a.shape
    lanes = np.zeros((m, 4), dtype=np.float32)
    i = 0
    while d - i >= 16:
        for j in (3, 2, 1, 0):
            lanes = a[:, i + 4 * j:i + 4 * j + 4] * b[:, i + 4 * j:i + 4 * j + 4] + lanes
        i += 16
    while i < d:
        pa, pb = np.zeros((m, 4), np.float32), np.zeros((m, 4), np.float32)
        pa[:, :d - i], pb[:, :d - i] = a[:, i:i + 4], b[:, i:i + 4]
        lanes = pa * pb + lanes
        i += 4
    return (lanes[:, 0] + lanes[:, 1]) + (lanes[:, 2] + lanes[:, 3])


@needs_native
class TestNativeInsertIsThePythonInsert:
    """``repro_insert`` against ``_insert_bottom`` bit for bit."""

    def test_numpy_reduces_in_the_order_the_kernel_replays(self):
        """The re-prune ranks by ``DistanceComputer.to_query``, NumPy's
        einsum: the kernel's ``np_sum`` is that reduction."""
        rng = np.random.default_rng(5)
        for dim in (3, 4, 13, 16, 17, 48, 100):
            rows = rng.standard_normal((200, dim)).astype(np.float32)
            q = rng.standard_normal(dim).astype(np.float32)
            diff = rows - q
            assert np.array_equal(np.einsum("ij,j->i", rows, q),
                                  _einsum_lanes(rows, np.broadcast_to(q, rows.shape)))
            assert np.array_equal(np.einsum("ij,ij->i", diff, diff),
                                  _einsum_lanes(diff, diff))

    def test_the_ruler_build(self):
        ds = _ruler_dataset()
        got, want = _twins(lambda: _state(HNSW(
            ds.base, ds.metric, M=12, ef_construction=60)))
        assert got == want

    @pytest.mark.parametrize("metric", ["l2", "ip", "cosine"])
    def test_inserts_after_fit_on_every_metric(self, metric, tiny_ds):
        """Rows with extra edges take ``r`` with their extras shifted right,
        and a re-prune keeps them; the overlay hears every mutation."""
        got, want = _twins(lambda: _fitted_inserts(
            tiny_ds.base, metric, 300, 50, tiny_ds.train_queries))
        assert got == want
        state, streams, with_extras = got
        assert all(stream[0] == 300 + i for i, stream in enumerate(streams))
        assert with_extras[0] > 0 and with_extras[1] > 0

    def test_inserts_after_delete_and_compaction(self, tiny_ds):
        """Removed ids are never linked; an entry that died is replaced."""
        def flow():
            index = HNSW(tiny_ds.base[:300], tiny_ds.metric, M=8,
                         ef_construction=40)
            fixer = NGFixer(index, FixConfig(k=5, rfix=False))
            maintainer = IndexMaintainer(fixer, np.empty((0, index.dim)),
                                         compact_threshold=0.9)
            maintainer.delete([0, fixer.entry, 17, 41])
            maintainer.compact()
            maintainer.delete([5])  # a tombstone: still linkable
            # Compaction strips a removed id's edges, so no search reaches
            # it; one still linked (a hand-made store) must not be chosen.
            index.adjacency.removed.update(
                index.adjacency.base_neighbors(index.medoid())[:3])
            maintainer.insert(tiny_ds.base[300:340])
            return _state(index)

        got, want = _twins(flow)
        assert got == want
        removed = set(got["removed"])
        assert len(removed) == 7
        assert not removed & set(sum(got["base"][300:], []))

    def test_the_re_prune_ranks_by_numpys_reduction(self):
        """A re-pruned row whose neighbours are permutations of one vector
        (equal exact distances, which each float32 reduction rounds its
        own way): only NumPy's order gives the Python rows' order."""
        def flow():
            rng = np.random.default_rng(3)
            u = rng.uniform(0.5, 1.5, 48).astype(np.float32)
            index = HNSW(np.zeros((1, 48), np.float32), "l2", M=2,
                         ef_construction=32)
            index.dc.append(np.stack([rng.permutation(u) for _ in range(8)]))
            index.adjacency.grow(8)
            index.adjacency.set_base_neighbors(0, range(1, 9))
            for c in range(1, 9):
                index.adjacency.set_base_neighbors(c, [0])
            rounded = index.dc.to_query(np.arange(1, 9), index.dc.data[0])
            index.insert(np.full(48, 1e-3, np.float32))  # re-prunes row 0
            return _state(index), np.unique(rounded).size

        got, want = _twins(flow)
        assert got == want
        assert got[1] > 1  # the rounding separates the neighbours

    def test_capacity_regrows_in_the_middle(self):
        """Node capacity (64 -> 128 -> 256 rows) and slab width (16 -> 32,
        once a row holds a dozen extra edges) regrow inside the sequence."""
        data = _vectors(200, dim=5, seed=9)

        def flow():
            index = HNSW(data[:64], "l2", M=2, ef_construction=16)
            shapes = set()
            for i, row in enumerate(data[64:]):
                if i == 40:
                    for v in range(20, 32):
                        index.adjacency.add_extra_edge(3, v, float(v))
                index.insert(row)
                shapes.add(index.adjacency._slab.shape)
            return _state(index), sorted(shapes)

        got, want = _twins(flow)
        assert got[0] == want[0]
        assert len(got[1]) >= 3 and got[1][0][1] < got[1][-1][1]

    def test_replay_and_store_add(self, tmp_path):
        """``store.add`` and WAL replay take the native route too."""
        def flow(directory):
            live = VectorStore(dim=8, seed=0, M=4, ef_construction=24,
                               scheduler_mode="inline", wal_dir=directory)
            live.add(_vectors(60))
            live.build()
            live.checkpoint()
            for row in _vectors(25, seed=1):
                live.add(row)
            live.close()
            recovered, _ = recover(directory, attach_wal=False)
            return (_state(live._fixer.index),
                    _state(recovered._fixer.index))

        got = flow(tmp_path / "native")
        with python_insert():
            want = flow(tmp_path / "python")
        assert got == want
        assert got[0]["base"] == got[1]["base"]


@needs_native
class TestRefusedLayoutsFallBack:
    """A layout the kernel does not write leaves the arrays untouched and
    the insert to the Python rows; on the integer grid every executor gives
    the same graph, so each must equal the native build."""

    def _call(self, adjacency, dc, **override):
        """``native.insert`` as ``HNSW(dc.data, "l2", M=2,
        ef_construction=16)`` would call it, with ``override``."""
        args = dict(rows=dc.native_rows(), slab=None, eh=None, degree=None,
                    base_count=None, n=None, first=1, last=dc.size,
                    entries=np.zeros(1, np.int64), ef=16, cap=4, slack=4,
                    pool_cap=_POOL_CAP,
                    stamps=VisitedTable(dc.size)._stamps, version0=1,
                    removed=None)
        if adjacency is not None:
            args.update(slab=adjacency._slab, eh=adjacency._eh,
                        degree=adjacency._degree,
                        base_count=adjacency._base_count,
                        n=adjacency.n_nodes)
        args.update(override)
        return native.insert(*args.values())

    def test_the_kernel_refuses_before_writing(self):
        data = _grid(40)
        dc = DistanceComputer(data, "l2")
        fresh = HNSW(data[:1], "l2", M=2, ef_construction=16).adjacency
        fresh.grow(39)
        before = (fresh._slab.copy(), fresh._degree.copy())
        rows64 = (dc.native_rows()[0], dc.data.astype(np.float64))
        wide = np.zeros((fresh._slab.shape[0], 2 * fresh._slab.shape[1]),
                        dtype=np.int32)
        for override in (dict(rows=rows64), dict(slab=wide[:, ::2]),
                         dict(eh=fresh._eh[:, :4]), dict(stamps=np.zeros(3, np.int32)),
                         dict(entries=np.zeros(0, np.int64)), dict(n=41)):
            assert self._call(fresh, dc, **override) is None, override
        frozen = fresh._degree.copy()
        frozen.setflags(write=False)
        assert self._call(fresh, dc, degree=frozen) is None
        assert np.array_equal(fresh._slab, before[0])
        assert np.array_equal(fresh._degree, before[1])

    def test_a_refused_row_writes_nothing_of_its_own(self):
        """Slots run out part-way (rows five wide, the slack allows nine):
        the rows before are linked as the Python insert links them, the
        refused one is left as it was."""
        data = _grid(40)
        dc = DistanceComputer(data, "l2")
        slab, eh = np.zeros((40, 5), np.int32), np.zeros((40, 5))
        degree, base_count = np.zeros(40, np.int32), np.zeros(40, np.int32)
        linked, ndc, touched = self._call(
            None, dc, slab=slab, eh=eh, degree=degree, base_count=base_count,
            n=40)
        assert 0 < linked < 39 and touched[0] == 1
        assert degree[1 + linked] == 0 and base_count[1 + linked] == 0
        with python_insert():
            want = HNSW(data[:1 + linked], "l2", M=2, ef_construction=16)
        assert [slab[u, :base_count[u]].tolist() for u in range(1 + linked)] \
            == _edges(want.adjacency)
        assert ndc == want.dc.ndc

    @pytest.mark.parametrize("layout", ["float64 rows", "strided slab",
                                        "proxy dc", "subclassed dc"])
    def test_each_layout_falls_back_to_the_same_graph(self, layout):
        data = _grid(150)

        def flow(refuse):
            index = HNSW(data[:100], "l2", M=4, ef_construction=24)
            if refuse and layout == "float64 rows":
                index.dc._data = index.dc._rows = index.dc.data.astype(np.float64)
            elif refuse and layout == "strided slab":
                slab = index.adjacency._slab
                wide = np.zeros((256, 2 * slab.shape[1]), dtype=np.int32)
                wide[:slab.shape[0], ::2] = slab
                index.adjacency._slab = wide[:, ::2]
            elif refuse and layout == "proxy dc":
                index.dc = _Proxy(index.dc)
            elif refuse:
                index.dc.__class__ = _SubclassedComputer
            for row in data[100:]:
                index.insert(row)
            if refuse and layout == "strided slab":
                assert not index.adjacency._slab.flags.c_contiguous
            return _state(index)

        OBS.enable()
        try:
            OBS.reset()
            got = flow(refuse=True)
            snapshot = OBS.snapshot()
        finally:
            OBS.disable()
            OBS.reset()
        assert got == flow(refuse=False)
        assert snapshot["search_native_fallbacks"] >= 50


class _SubclassedComputer(DistanceComputer):
    """A subclass may score differently: never described to the kernel."""


class _Proxy:
    """Forwards every attribute to a computer it wraps (no native
    description of its own)."""

    def __init__(self, dc):
        object.__setattr__(self, "_dc", dc)

    def __getattr__(self, name):
        return getattr(self._dc, name)

    def __setattr__(self, name, value):
        setattr(self._dc, name, value)


# -- build, add and replay are one routine -------------------------------------

def _vectors(n, dim=8, seed=0):
    return np.random.default_rng(seed).standard_normal((n, dim)).astype(
        np.float32)


class TestReplayEqualsLive:
    def test_recovered_inserts_are_the_live_stores(self, tmp_path):
        """Snapshot, then inserts: the recovered store replays them into the
        snapshot's ``HNSW`` and must rebuild the live store's edges."""
        live = VectorStore(dim=8, seed=0, M=4, ef_construction=24,
                           scheduler_mode="inline", wal_dir=tmp_path)
        live.add(_vectors(60))
        live.build()
        live.checkpoint()
        for row in _vectors(25, seed=1):
            live.add(row)
        live.delete([3])
        live.add(_vectors(4, seed=2))  # one batch: one insert call
        live.close()
        recovered, report = recover(tmp_path, attach_wal=False)
        assert report.consistent and report.replayed["insert"] == 26
        assert type(recovered._fixer.index) is HNSW
        assert (_edges(recovered._fixer.adjacency)
                == _edges(live._fixer.adjacency))
        assert recovered._fixer.entry == live._fixer.entry

    def test_hnsw_has_no_second_copy(self, tmp_path):
        """Built, loaded and recovered are one class with one insert, and
        the index is the one owner of its entry."""
        assert not hasattr(HNSW, "_select_neighbors")
        assert not hasattr(HNSW, "_shrink")
        assert not hasattr(recovery, "ReplayableIndex")
        loaded = load_index(save_index(HNSW(_vectors(30), "l2", M=4,
                                            ef_construction=16), tmp_path / "h"))
        assert type(loaded) is HNSW
        assert (loaded.M0, loaded.ef_construction) == (8, 16)
        assert HNSW.insert is BottomLayer.insert
        for cls in (HNSW, BottomLayer, FrozenIndex):
            assert not {"medoid", "entry_points"} & set(vars(cls)), cls
        assert isinstance(vars(NGFixer)["entry"], property)


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
    if kind == "replayable":  # what recovery replays into: the saved HNSW
        with tempfile.TemporaryDirectory() as directory:
            index = load_index(save_index(hnsw, f"{directory}/hnsw"))
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

    def test_an_add_scans_once_per_eighth_of_growth(self, tiny_ds,
                                                      monkeypatch):
        """At most one exact scan per ``ceil(n / 8)`` appended rows, and
        each one elects ``medoid_id`` over the live rows: a tombstoned
        entry navigates until the next election, which passes it over."""
        index = HNSW(tiny_ds.base[:240], tiny_ds.metric, M=8,
                     ef_construction=40)
        fixer = NGFixer(index, FixConfig(k=5))
        maintainer = IndexMaintainer(fixer, np.empty((0, index.dim)),
                                     compact_threshold=0.9)
        exact = graphs_base.medoid_id
        elections = []

        def counted(dc, dead=None):
            elections.append((dc.size, set(dead or ())))
            return exact(dc, dead)

        monkeypatch.setattr(graphs_base, "medoid_id", counted)
        first = fixer.entry  # the first election
        maintainer.delete([first, 7])
        for row in tiny_ds.base[240:400]:
            maintainer.insert(row)
            entry = fixer.entry
            if len(elections) == 1:
                assert entry == first  # a tombstone stays the entry
        monkeypatch.undo()
        sizes = [size for size, _ in elections]
        assert sizes == [240, 270, 304, 342, 385]
        for before, after in zip(sizes, sizes[1:]):
            assert after - before == -(-before // 8)
        assert all(dead == {first, 7} for _, dead in elections[1:])
        assert fixer.entry != first
        alive = np.setdiff1d(np.arange(index.dc.size), [first, 7])
        q = index.dc.prepare_query(index.dc.centroid())
        dists = index.dc.to_query(alive, q)
        # The last election saw the rows up to 385; 15 came after it.
        assert index.elected_at == 385
        assert fixer.entry in alive.tolist()
        assert index.dc.to_query(np.array([fixer.entry]), q)[0] <= (
            dists.min() * 1.05 + 1e-6)

    def test_a_dead_medoid_is_replaced_by_a_live_row(self, tiny_ds):
        """A removed medoid is replaced by a live row; a tombstoned one
        stays the entry, and searches through it return only live rows."""
        index = HNSW(tiny_ds.base[:200], tiny_ds.metric, M=8,
                     ef_construction=40)
        first = index.medoid()
        index.adjacency.tombstones.add(first)
        assert index.medoid() == first
        results = index.search_batch(tiny_ds.test_queries, k=10, ef=40)
        assert all(len(r.ids) == 10 and first not in r.ids.tolist()
                   for r in results)
        index.adjacency.remove_node_edges({first})
        index.adjacency.tombstones.clear()  # as compaction leaves them
        second = index.medoid()
        assert second != first
        assert second == graphs_base.medoid_id(index.dc, {first})
        assert index.entry_points(tiny_ds.test_queries[0]) == [second]
        results = index.search_batch(tiny_ds.test_queries, k=10, ef=40)
        assert all(len(r.ids) == 10 and first not in r.ids.tolist()
                   for r in results)


_ENTRY_NAMES = {"_medoid", "_medoid_size"}


def _entry_writes(path: pathlib.Path, rel: str) -> list[tuple[str, str]]:
    """``(where, what)`` for every assignment in ``path`` to ``_medoid``
    or ``_medoid_size`` (a name or an attribute) or to an ``<obj>.entry``
    attribute — plain, augmented, annotated, tuple or ``setattr`` — with
    ``where`` its file and enclosing ``Class.function``."""
    found = []

    def written(node):
        if isinstance(node, (ast.Tuple, ast.List)):
            for element in node.elts:
                yield from written(element)
        elif isinstance(node, ast.Attribute) and (
                node.attr in _ENTRY_NAMES or node.attr == "entry"):
            yield node.attr
        elif isinstance(node, ast.Name) and node.id in _ENTRY_NAMES:
            yield node.id

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            scope = scope + [node.name]
        names = []
        if isinstance(node, ast.Assign):
            names = [n for target in node.targets for n in written(target)]
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            names = list(written(node.target))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "setattr" and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)
              and node.args[1].value in _ENTRY_NAMES | {"entry"}):
            names = [node.args[1].value]
        found.extend((f"{rel}:{'.'.join(scope)}", name) for name in names)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(), rel), [])
    return found


def test_the_index_is_the_one_owner_of_its_entry():
    """Nothing in ``src/repro`` outside ``graphs/base.py`` assigns the
    navigating node: not ``_medoid``, not an ``.entry`` attribute.  The one
    exception is the serving epoch's snapshot of it."""
    root = pathlib.Path(graphs_base.__file__).parents[1]
    writes = [w for path in sorted(root.rglob("*.py"))
              for w in _entry_writes(path, path.relative_to(root).as_posix())]
    owner = [w for w in writes if w[0].startswith("graphs/base.py:")]
    assert {name for _, name in owner} == _ENTRY_NAMES  # the walk sees them
    others = [w for w in writes if w not in owner]
    assert others == [("serving.py:GraphEpoch.__init__", "entry")]


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
