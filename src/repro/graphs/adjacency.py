"""Directed adjacency storage with base/extra edge separation.

The paper represents a fixed graph index as ``G = (V, E_base ∪ E_extra)``
(Sec. 5.3): ``E_base`` comes from the underlying index construction (HNSW,
NSG, …) and ``E_extra`` is added by NGFix/RFix.  Extra edges carry their
Escape Hardness value (the paper stores 16 bits per extra edge) which drives
eviction when a node's extra out-degree budget is exhausted, and partial
rebuilds drop only extra edges.  Tombstones implement lazy deletion.

The edge *sets* live in per-node Python lists/dicts (what NGFix/RFix mutate
and reason about); what a traversal reads is the **slab**: every node's
combined out-neighbours (base, then extra, in insertion order) in one int32
array ``(capacity, width)`` plus a degree vector, rewritten for the touched
node at the single choke point :meth:`AdjacencyStore._touch`.  Both
executors read it in place — :meth:`AdjacencyStore.neighbors` is a row view
and :meth:`AdjacencyStore.native_graph` hands the two arrays to ``_beam.c``
— so construction, ``add``, WAL replay and ``fix_query`` search the graph
they are writing without freezing it.  A call site names this graph by the
store itself (it is callable like a ``neighbors_fn``), never by its bound
``neighbors``: a plain callable has no native description.

The slab is the live graph's only searchable copy.  :meth:`freeze`
(→ :class:`~repro.graphs.csr.CSRGraphView`) gathers it into the immutable
CSR snapshot a serving epoch pins, and only
:meth:`repro.serving.EpochManager.cut` calls it.
"""

from __future__ import annotations

import numpy as np

from repro.graphs import native
from repro.graphs.csr import CSRGraphView
from repro.utils.growth import with_capacity

# Sentinel EH for edges that must never be evicted (RFix navigation edges).
EH_INFINITE = float("inf")


class ObservedTombstones(set):
    """Tombstone set that mirrors additions into the store's delta overlay.

    Installed by :meth:`AdjacencyStore.attach_overlay` so the serving layer
    sees lazy deletions with the same sequence-number ordering as edge
    mutations.  Removal (``clear`` during compaction) is intentionally not
    logged: the overlay is append-only, and an epoch view excluding an id
    that compaction already unlinked is harmless.
    """

    __slots__ = ("_store",)

    def __init__(self, iterable=(), store: "AdjacencyStore | None" = None):
        super().__init__(iterable)
        self._store = store

    def add(self, node: int) -> None:
        if node not in self:
            super().add(node)
            store = self._store
            if store is not None and store._overlay is not None:
                store._overlay.record_tombstone(node)

    def update(self, *others) -> None:
        for other in others:
            for node in other:
                self.add(node)


class AdjacencyStore:
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
            if type(self) is not AdjacencyStore:
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
        out = AdjacencyStore(self.n_nodes)
        out._base = [list(lst) for lst in self._base]
        out._extra = [dict(d) for d in self._extra]
        out._slab = self._slab[:self.n_nodes].copy()
        out._degree = self._degree[:self.n_nodes].copy()
        out.tombstones = set(self.tombstones)
        out.removed = set(self.removed)
        return out
