"""AdjacencyStore: base/extra edge semantics, eviction, maintenance hooks,
and a differential state machine against the list/dict store it replaced."""

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.graphs import native
from repro.graphs.adjacency import (EH_INFINITE, AdjacencyStore,
                                    ObservedTombstones)
from repro.graphs.csr import CSRGraphView
from repro.utils.growth import with_capacity


@pytest.fixture
def store():
    return AdjacencyStore(6)


class TestBaseEdges:
    def test_add_and_read(self, store):
        assert store.add_base_edge(0, 1)
        assert store.base_neighbors(0) == [1]
        assert store.neighbors(0).tolist() == [1]

    def test_duplicate_and_self_loop_refused(self, store):
        store.add_base_edge(0, 1)
        assert not store.add_base_edge(0, 1)
        assert not store.add_base_edge(2, 2)

    def test_set_base_neighbors_drops_self(self, store):
        store.set_base_neighbors(0, [0, 1, 2, 1, 0, 2])
        assert store.base_neighbors(0) == [1, 2]

    def test_directed(self, store):
        store.add_base_edge(0, 1)
        assert store.base_neighbors(1) == []


class TestExtraEdges:
    def test_add_with_eh(self, store):
        assert store.add_extra_edge(0, 1, eh=5.0)
        assert store.extra_neighbors(0) == {1: 5.0}
        assert store.extra_degree(0) == 1

    def test_readd_keeps_larger_eh(self, store):
        store.add_extra_edge(0, 1, eh=5.0)
        assert not store.add_extra_edge(0, 1, eh=3.0)
        assert store.extra_neighbors(0)[1] == 5.0
        store.add_extra_edge(0, 1, eh=9.0)
        assert store.extra_neighbors(0)[1] == 9.0

    def test_extra_refused_if_base_exists(self, store):
        store.add_base_edge(0, 1)
        assert not store.add_extra_edge(0, 1, eh=2.0)

    def test_base_edge_supersedes_extra(self, store):
        store.add_extra_edge(0, 1, eh=2.0)
        store.add_extra_edge(0, 3, eh=2.0)
        assert store.add_base_edge(0, 1)
        store.set_base_neighbors(0, [1, 3, 4])
        assert store.extra_neighbors(0) == {}
        assert store.neighbors(0).tolist() == [1, 3, 4]

    def test_neighbors_combined(self, store):
        store.add_base_edge(0, 1)
        store.add_extra_edge(0, 2, eh=1.0)
        assert sorted(store.neighbors(0).tolist()) == [1, 2]
        assert store.out_degree(0) == 2

    def test_remove_extra(self, store):
        store.add_extra_edge(0, 1, eh=1.0)
        assert store.remove_extra_edge(0, 1)
        assert not store.remove_extra_edge(0, 1)
        assert store.extra_degree(0) == 0


class TestEviction:
    def test_evicts_lowest_eh(self, store):
        store.add_extra_edge(0, 1, eh=5.0)
        store.add_extra_edge(0, 2, eh=1.0)
        store.add_extra_edge(0, 3, eh=3.0)
        v, eh = store.evict_lowest_eh(0)
        assert (v, eh) == (2, 1.0)

    def test_infinite_eh_protected(self, store):
        store.add_extra_edge(0, 1, eh=EH_INFINITE)
        assert store.evict_lowest_eh(0) is None
        store.add_extra_edge(0, 2, eh=7.0)
        assert store.evict_lowest_eh(0) == (2, 7.0)
        assert store.extra_neighbors(0) == {1: EH_INFINITE}

    def test_tie_break_is_lowest_id_regardless_of_insertion_order(self):
        """Equal-EH eviction must pick the smallest target id no matter the
        order the edges were added in, so repair runs are reproducible
        across worker counts (the dict iteration order differs)."""
        for order in ([4, 2, 9], [9, 4, 2], [2, 9, 4]):
            store = AdjacencyStore(12)
            for v in order:
                store.add_extra_edge(0, v, eh=3.0)
            assert store.evict_lowest_eh(0) == (2, 3.0)
            assert store.evict_lowest_eh(0) == (4, 3.0)
            assert store.evict_lowest_eh(0) == (9, 3.0)


class TestReaders:
    def test_readers_hand_out_fresh_copies(self, store):
        store.set_base_neighbors(0, [1, 2])
        store.add_extra_edge(0, 3, eh=2.5)
        base, extra = store.base_neighbors(0), store.extra_neighbors(0)
        assert base is not store.base_neighbors(0)
        base.append(4)
        extra[5] = 1.0
        del extra[3]
        assert store.base_neighbors(0) == [1, 2]
        assert store.extra_neighbors(0) == {3: 2.5}
        assert store.neighbors(0).tolist() == [1, 2, 3]


class TestCacheInvalidation:
    def test_neighbors_cache_refreshes(self, store):
        store.add_base_edge(0, 1)
        first = store.neighbors(0)
        store.add_extra_edge(0, 2, eh=1.0)
        assert sorted(store.neighbors(0).tolist()) == [1, 2]
        assert first.tolist() == [1]  # old snapshot unchanged


class TestAggregates:
    def test_counts(self, store):
        store.add_base_edge(0, 1)
        store.add_base_edge(1, 2)
        store.add_extra_edge(0, 3, eh=1.0)
        assert store.n_base_edges() == 2
        assert store.n_extra_edges() == 1
        assert store.average_out_degree() == pytest.approx(3 / 6)

    def test_index_size_accounting(self, store):
        store.add_base_edge(0, 1)
        store.add_extra_edge(0, 2, eh=1.0)
        # 4 bytes per base edge, 6 per extra edge (id + 16-bit EH)
        assert store.index_size_bytes() == 4 + 6


class TestMaintenanceHooks:
    def test_grow(self, store):
        store.grow(2)
        assert store.n_nodes == 8
        store.add_base_edge(7, 0)
        assert store.base_neighbors(7) == [0]

    def test_grow_negative_rejected(self, store):
        with pytest.raises(ValueError):
            store.grow(-1)

    def test_drop_extra_fraction_all(self, store, rng):
        for v in (1, 2, 3, 4):
            store.add_extra_edge(0, v, eh=float(v))
        removed = store.drop_extra_fraction(1.0, rng)
        assert removed == 4
        assert store.extra_degree(0) == 0

    def test_drop_extra_fraction_resets_eh(self, store, rng):
        for v in (1, 2, 3, 4):
            store.add_extra_edge(0, v, eh=float(v))
        store.drop_extra_fraction(0.5, rng)
        assert store.extra_degree(0) == 2
        assert all(eh == 0.0 for eh in store.extra_neighbors(0).values())

    def test_drop_fraction_validated(self, store, rng):
        with pytest.raises(ValueError):
            store.drop_extra_fraction(1.5, rng)

    def test_drop_extra_fraction_spares_infinite_eh(self, store, rng):
        """Regression: RFix navigation edges (EH=inf) must survive a partial
        rebuild's random drop and keep their never-evict sentinel tag."""
        store.add_extra_edge(0, 1, eh=EH_INFINITE)
        store.add_extra_edge(0, 2, eh=EH_INFINITE)
        store.add_extra_edge(0, 3, eh=3.0)
        store.add_extra_edge(0, 4, eh=4.0)
        removed = store.drop_extra_fraction(1.0, rng)
        assert removed == 2
        assert store.extra_neighbors(0) == {1: EH_INFINITE, 2: EH_INFINITE}

    def test_drop_extra_fraction_resets_only_finite_eh(self, store, rng):
        store.add_extra_edge(0, 1, eh=EH_INFINITE)
        store.add_extra_edge(0, 2, eh=7.0)
        store.drop_extra_fraction(0.0, rng)
        assert store.extra_neighbors(0) == {1: EH_INFINITE, 2: 0.0}

    def test_remove_node_edges(self, store):
        store.add_base_edge(0, 1)
        store.add_base_edge(1, 2)
        store.add_extra_edge(2, 1, eh=1.0)
        store.add_base_edge(1, 3)
        store.remove_node_edges({1})
        assert store.base_neighbors(0) == []
        assert store.base_neighbors(1) == []
        assert store.extra_neighbors(2) == {}

    def test_copy_independent(self, store):
        store.add_base_edge(0, 1)
        clone = store.copy()
        clone.add_base_edge(0, 2)
        clone.add_extra_edge(1, 3, eh=1.0)
        assert store.base_neighbors(0) == [1]
        assert store.extra_degree(1) == 0


def test_invalid_node_count():
    with pytest.raises(ValueError):
        AdjacencyStore(0)


# -- the list/dict store, kept as the reference -------------------------------
#
# ``ParentAdjacencyStore`` is the store as it was before the slab became its
# only representation: per-node Python ``_base`` lists and ``_extra`` dicts,
# copied into the slab at ``_touch``.  It is copied verbatim except that the
# class names itself in ``copy`` and ``native_graph``.

class ParentAdjacencyStore:
    """Per-node base neighbors, extra neighbors (with EH tags), tombstones.

    The combined neighbor row of each node is kept current in the slab (see
    the module docstring), which every search over the live graph walks; a
    whole-graph CSR snapshot (:meth:`freeze`) serves the epoch query path.
    """

    def __init__(self, n_nodes: int):
        if n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {n_nodes}")
        self._base: list[list[int]] = [[] for _ in range(n_nodes)]
        self._extra: list[dict[int, float]] = [{} for _ in range(n_nodes)]
        # ``_slab[u, :_degree[u]]`` = ``_base[u] + list(_extra[u])``.  Rows
        # widen (doubling) when a node outgrows them; ``_native`` is the
        # spec of the current arrays at the current node count.
        self._slab = np.zeros((n_nodes, 8), dtype=np.int32)
        self._degree = np.zeros(n_nodes, dtype=np.int32)
        self._native: native.Graph | None = None
        self.tombstones: set[int] = set()
        # Ids physically compacted away (edges stripped, row still in the
        # data matrix).  Unlike tombstones this set is never cleared: a
        # compacted id must stay out of search results and out of repair's
        # ground truth forever, or online fixing can re-link ("resurrect")
        # it through the stale data row.
        self.removed: set[int] = set()
        # Serving-layer hook: while an overlay is attached, every out-edge
        # mutation and tombstone addition is also logged there so pinned
        # epoch views stay consistent without refreezing.
        self._overlay = None

    def _touch(self, u: int) -> None:
        """Record a mutation of node ``u``'s out-edges."""
        base, extra = self._base[u], self._extra[u]
        n_base = len(base)
        degree = n_base + len(extra)
        if degree > self._slab.shape[1]:
            # New array, not a resize: a spec taken earlier stays readable.
            wide = np.zeros((self._slab.shape[0],
                             max(degree, 2 * self._slab.shape[1])),
                            dtype=np.int32)
            wide[:, :self._slab.shape[1]] = self._slab
            self._slab, self._native = wide, None
        row = self._slab[u]
        row[:n_base] = base
        if extra:
            row[n_base:degree] = list(extra)
        self._degree[u] = degree
        if self._overlay is not None:
            # The overlay's frozen per-node record: a copy, the row itself
            # is rewritten by the next mutation.
            self._overlay.record_node(u, row[:degree].copy())

    # -- serving overlay ----------------------------------------------------

    def attach_overlay(self, overlay) -> None:
        """Mirror subsequent mutations into ``overlay`` (serving layer).

        The overlay only sees mutations made *after* attachment; the caller
        (:class:`~repro.serving.EpochManager`) freezes the store first so the
        epoch CSR plus the overlay log always reconstruct the live graph.
        """
        self._overlay = overlay
        if not isinstance(self.tombstones, ObservedTombstones):
            self.tombstones = ObservedTombstones(self.tombstones, self)

    def detach_overlay(self) -> None:
        """Stop mirroring mutations (bulk rebuild ahead)."""
        self._overlay = None

    # -- size bookkeeping ---------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self._base)

    def grow(self, n_new: int) -> None:
        """Append ``n_new`` isolated nodes (for incremental insertion)."""
        if n_new < 0:
            raise ValueError(f"n_new must be non-negative, got {n_new}")
        if n_new == 0:
            return
        size = self.n_nodes
        self._base.extend([] for _ in range(n_new))
        self._extra.extend({} for _ in range(n_new))
        slab = self._slab
        self._degree = with_capacity(self._degree, size, size + n_new)
        self._slab = with_capacity(slab, size, size + n_new)
        if self._slab is not slab:
            self._native = None

    # -- edge mutation --------------------------------------------------------

    def set_base_neighbors(self, u: int, neighbors) -> None:
        """Replace node ``u``'s base neighbor list: ``neighbors`` without
        ``u`` and without repeats, in order.  A base edge supersedes an
        extra edge to the same node (see :meth:`add_base_edge`)."""
        base = self._base[u] = list(dict.fromkeys(
            v for v in map(int, neighbors) if v != u))
        extra = self._extra[u]
        if extra:
            for v in base:
                extra.pop(v, None)
        self._touch(u)

    def add_base_edge(self, u: int, v: int) -> bool:
        """Add base edge u->v; returns False if it already existed.  An
        extra edge u->v is dropped for it — as :meth:`add_extra_edge`
        refuses one beside a base edge — so ``u``'s row never holds ``v``
        twice (a node scored twice overflows the native kernel's scratch,
        and it hands the search back)."""
        u, v = int(u), int(v)
        if u == v or v in self._base[u]:
            return False
        self._extra[u].pop(v, None)
        self._base[u].append(v)
        self._touch(u)
        return True

    def add_extra_edge(self, u: int, v: int, eh: float) -> bool:
        """Add (or re-tag) extra edge u->v carrying Escape Hardness ``eh``.

        Re-adding an existing extra edge keeps the larger EH tag (an edge
        proven hard by any query stays protected).  Returns True if the edge
        is new.
        """
        u, v = int(u), int(v)
        if u == v:
            return False
        existing = self._extra[u].get(v)
        if existing is not None:
            if eh > existing:
                self._extra[u][v] = eh
            return False
        if v in self._base[u]:
            return False
        self._extra[u][v] = eh
        self._touch(u)
        return True

    def remove_extra_edge(self, u: int, v: int) -> bool:
        """Remove extra edge u->v if present."""
        if self._extra[u].pop(v, None) is None:
            return False
        self._touch(u)
        return True

    def evict_lowest_eh(self, u: int) -> tuple[int, float] | None:
        """Drop node ``u``'s extra edge with the smallest EH tag.

        Paper Algorithm 3 lines 13-16: when the extra-degree budget is
        exceeded, edges whose EH is low (i.e. edges that were easy to do
        without) are pruned first.  Infinite-EH edges (RFix) are never
        evicted.  The choice is the lexicographic minimum over ``(eh, v)``,
        so ties on EH deterministically evict the smallest target id — the
        outcome depends only on the edge *set*, never on dict insertion
        order, keeping repair runs reproducible across worker counts.
        Returns the evicted (target, eh) or None.
        """
        best: tuple[float, int] | None = None
        for v, eh in self._extra[u].items():
            if eh == EH_INFINITE:
                continue
            if best is None or (eh, v) < best:
                best = (eh, v)
        if best is None:
            return None
        best_eh, best_v = best
        del self._extra[u][best_v]
        self._touch(u)
        return best_v, best_eh

    # -- reads ----------------------------------------------------------------

    def base_neighbors(self, u: int) -> list[int]:
        """Base neighbors of ``u`` as a defensive copy (safe to mutate)."""
        return list(self._base[u])

    def extra_neighbors(self, u: int) -> dict[int, float]:
        """Extra neighbors of ``u`` mapped to their EH tags (copy)."""
        return dict(self._extra[u])

    def base_neighbors_ro(self, u: int) -> list[int]:
        """Node ``u``'s *internal* base list — read-only, never mutate.

        Hot-path variant of :meth:`base_neighbors`: construction loops read
        neighbor lists thousands of times per node, and the defensive copy
        dominated those call sites.
        """
        return self._base[u]

    def extra_neighbors_ro(self, u: int) -> dict[int, float]:
        """Node ``u``'s *internal* extra dict — read-only, never mutate."""
        return self._extra[u]

    def neighbors(self, u: int) -> np.ndarray:
        """Combined base+extra out-neighbors: ``u``'s live slab row (a
        read-only view by contract — the next mutation of ``u`` rewrites
        it in place)."""
        return self._slab[u, :self._degree[u]]

    # The store is drop-in for the ``neighbors_fn`` callables search takes,
    # and — unlike its bound ``neighbors`` — carries ``native_graph``.
    __call__ = neighbors

    def native_graph(self):
        """The live graph as a :class:`repro.graphs.native.Graph` the
        kernel reads in place (rebuilt when the node count moved or the
        arrays were replaced), or None for a subclass."""
        graph = self._native
        if graph is None or graph.n != len(self._base):
            if type(self) is not ParentAdjacencyStore:
                return None
            graph = self._native = native.Graph.mutable(
                self._slab, self._degree, len(self._base))
        return graph

    def out_degree(self, u: int) -> int:
        return len(self._base[u]) + len(self._extra[u])

    def base_degree(self, u: int) -> int:
        return len(self._base[u])

    def extra_degree(self, u: int) -> int:
        return len(self._extra[u])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._extra[u] or v in self._base[u]

    # -- frozen CSR snapshot ---------------------------------------------------

    def freeze(self) -> CSRGraphView:
        """A fresh CSR snapshot of the combined adjacency (an epoch's graph).

        Neighbor order per node matches :meth:`neighbors` exactly (base
        edges in list order, then extra edges in insertion order), so any
        search over the view is bit-identical to one over the live store.
        """
        n = self.n_nodes
        degree = self._degree[:n]
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(degree, out=indptr[1:])
        # Row-major gather of the live part of every row = CSR order.
        live = np.arange(self._slab.shape[1], dtype=np.int32) < degree[:, None]
        return CSRGraphView(indptr, self._slab[:n][live])

    # -- aggregates -----------------------------------------------------------

    def n_base_edges(self) -> int:
        return sum(len(lst) for lst in self._base)

    def n_extra_edges(self) -> int:
        return sum(len(d) for d in self._extra)

    def average_out_degree(self) -> float:
        return (self.n_base_edges() + self.n_extra_edges()) / self.n_nodes

    def index_size_bytes(self) -> int:
        """Estimated serialized size: 4 B per edge id + 2 B EH per extra edge.

        Mirrors the paper's accounting (Sec. 6.5): NGFix* stores an extra
        16-bit EH per added edge, making it slightly larger per-edge than
        RoarGraph/NSG.
        """
        return 4 * self.n_base_edges() + 6 * self.n_extra_edges()

    # -- maintenance ----------------------------------------------------------

    def drop_extra_fraction(self, fraction: float,
                            rng: np.random.Generator) -> int:
        """Randomly remove ``fraction`` of all extra edges; reset kept EH to 0.

        Implements step (1) of the paper's partial rebuild (Sec. 5.5.1):
        remove a proportion of extra outgoing edges (base edges untouched)
        and reset remaining EH values, because stale hardness estimates no
        longer reflect the current graph.  Infinite-EH edges (RFix navigation
        edges, paper Alg. 4) are never dropped and keep their sentinel tag —
        the same never-evict guarantee :meth:`evict_lowest_eh` upholds.
        Returns the number removed.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        targets = [(u, v) for u in range(self.n_nodes)
                   for v, eh in self._extra[u].items() if eh != EH_INFINITE]
        n_drop = int(round(fraction * len(targets)))
        if n_drop:
            for i in rng.choice(len(targets), size=n_drop, replace=False):
                u, v = targets[int(i)]
                del self._extra[u][v]
        for u, v in targets:
            if v in self._extra[u]:
                self._extra[u][v] = 0.0
            self._touch(u)
        return n_drop

    def excluded_ids(self) -> set[int] | None:
        """Ids barred from search results: live tombstones + compacted ids.

        ``None`` when both sets are empty, so hot paths keep their
        no-allocation fast path.
        """
        if self.removed:
            return self.tombstones | self.removed
        return self.tombstones or None

    def remove_node_edges(self, deleted: set[int]) -> None:
        """Physically remove all edges into/out of ``deleted`` nodes.

        Used by the compaction path of deletion (Sec. 5.5.2): once tombstones
        exceed the threshold, a full traversal strips deleted points and
        their incoming edges.  The ids join :attr:`removed` permanently.
        """
        self.removed |= set(deleted)
        for u in range(self.n_nodes):
            if u in deleted:
                self._base[u] = []
                self._extra[u] = {}
                self._touch(u)
                continue
            base = [v for v in self._base[u] if v not in deleted]
            if len(base) != len(self._base[u]):
                self._base[u] = base
                self._touch(u)
            extra_hits = [v for v in self._extra[u] if v in deleted]
            for v in extra_hits:
                del self._extra[u][v]
            if extra_hits:
                self._touch(u)

    def copy(self) -> "AdjacencyStore":
        """Deep copy (used by ablation benches to fork a base graph)."""
        out = ParentAdjacencyStore(self.n_nodes)
        out._base = [list(lst) for lst in self._base]
        out._extra = [dict(d) for d in self._extra]
        out._slab = self._slab[:self.n_nodes].copy()
        out._degree = self._degree[:self.n_nodes].copy()
        out.tombstones = set(self.tombstones)
        out.removed = set(self.removed)
        return out


# -- one machine drives both stores ----------------------------------------------

class RecordingOverlay:
    """The two calls a store makes on an attached overlay, logged."""

    def __init__(self):
        self.log = []

    def record_node(self, u, row):
        self.log.append((u, row.tolist()))

    def record_tombstone(self, node):
        self.log.append(("tombstone", node))


def _bits(eh) -> str:
    return float(eh).hex()


_NODE = st.integers(0, 10**6)  # reduced modulo the node count at use
_EH = st.sampled_from([0.0, 1.0, 2.5, 3.0, 1e-300, EH_INFINITE])


class StoreMachine(RuleBasedStateMachine):
    """Every mutator, ``grow``, ``copy`` and an attached overlay, applied to
    the array store and to the list/dict reference alike: after each step
    every reader, aggregate, ``freeze()`` and the overlay's record stream
    agree, and the native spec names the current arrays (while one taken
    at the start still points at arrays it owns)."""

    def __init__(self):
        super().__init__()
        self.stores = (AdjacencyStore(3), ParentAdjacencyStore(3))
        self.overlays = (None, None)
        self.first_spec = self.stores[0].native_graph()

    def _both(self, name, *args):
        out, ref = (getattr(store, name)(*args) for store in self.stores)
        return out, ref

    def _node(self, pick):
        return pick % self.stores[0].n_nodes

    @rule(u=_NODE, vs=st.lists(_NODE, max_size=20))
    def set_base_neighbors(self, u, vs):
        u = self._node(u)
        self._both("set_base_neighbors", u,
                   np.array([self._node(v) for v in vs], dtype=np.int64))

    @rule(u=_NODE, v=_NODE)
    def add_base_edge(self, u, v):
        out, ref = self._both("add_base_edge", self._node(u), self._node(v))
        assert out == ref

    @rule(u=_NODE, v=_NODE, eh=_EH)
    def add_extra_edge(self, u, v, eh):
        out, ref = self._both("add_extra_edge", self._node(u), self._node(v),
                              eh)
        assert out == ref

    @rule(u=_NODE, v=_NODE)
    def remove_extra_edge(self, u, v):
        out, ref = self._both("remove_extra_edge", self._node(u),
                              self._node(v))
        assert out == ref

    @rule(u=_NODE)
    def evict_lowest_eh(self, u):
        out, ref = self._both("evict_lowest_eh", self._node(u))
        if ref is None:
            assert out is None
        else:
            assert out[0] == ref[0] and _bits(out[1]) == _bits(ref[1])

    @rule(fraction=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
          seed=st.integers(0, 9))
    def drop_extra_fraction(self, fraction, seed):
        out, ref = (store.drop_extra_fraction(
            fraction, np.random.default_rng(seed)) for store in self.stores)
        assert out == ref

    @rule(picks=st.sets(_NODE, max_size=3))
    def remove_node_edges(self, picks):
        self._both("remove_node_edges", {self._node(v) for v in picks})

    @rule(u=_NODE)
    def tombstone(self, u):
        for store in self.stores:
            store.tombstones.add(self._node(u))

    @rule(n_new=st.integers(0, 9))
    def grow(self, n_new):
        self._both("grow", n_new)

    @rule()
    def copy(self):
        self.stores = tuple(store.copy() for store in self.stores)
        self.overlays = (None, None)

    @precondition(lambda self: self.overlays[0] is None)
    @rule()
    def attach_overlay(self):
        self.overlays = (RecordingOverlay(), RecordingOverlay())
        for store, overlay in zip(self.stores, self.overlays):
            store.attach_overlay(overlay)
            assert isinstance(store.tombstones, ObservedTombstones)

    @precondition(lambda self: self.overlays[0] is not None)
    @rule()
    def detach_overlay(self):
        self._both("detach_overlay")
        self.overlays = (None, None)

    @invariant()
    def readers_agree(self):
        store, ref = self.stores
        n = store.n_nodes
        assert ref.n_nodes == n
        for u in range(n):
            row = store.neighbors(u).tolist()
            assert row == ref.neighbors(u).tolist() == store(u).tolist()
            assert len(set(row)) == len(row)
            assert store.base_neighbors(u) == ref.base_neighbors(u)
            extra, ref_extra = store.extra_neighbors(u), ref.extra_neighbors(u)
            assert ([(v, _bits(eh)) for v, eh in extra.items()]
                    == [(v, _bits(eh)) for v, eh in ref_extra.items()])
            assert (store.out_degree(u), store.base_degree(u),
                    store.extra_degree(u)) == (
                ref.out_degree(u), ref.base_degree(u), ref.extra_degree(u))
            for v in range(n):
                assert store.has_edge(u, v) == ref.has_edge(u, v)
        for name in ("n_base_edges", "n_extra_edges", "average_out_degree",
                     "index_size_bytes", "excluded_ids"):
            out, expected = self._both(name)
            assert out == expected, name

    @invariant()
    def freeze_agrees(self):
        view, ref_view = self._both("freeze")
        np.testing.assert_array_equal(view.indptr, ref_view.indptr)
        np.testing.assert_array_equal(view.indices, ref_view.indices)
        assert view.indptr.dtype == view.indices.dtype == np.int32

    @invariant()
    def overlay_records_agree(self):
        out, ref = self.overlays
        if out is not None:
            assert out.log == ref.log

    @invariant()
    def spec_names_the_arrays(self):
        store = self.stores[0]
        spec = store.native_graph()
        assert spec.n == store.n_nodes
        assert spec.slab is store._slab and spec.degree is store._degree
        assert self.first_spec.n == 3 and self.first_spec.slab.shape[0] >= 3


StoreMachine.TestCase.settings = settings(
    max_examples=120, stateful_step_count=40, deadline=None)
TestStoreMachine = StoreMachine.TestCase
