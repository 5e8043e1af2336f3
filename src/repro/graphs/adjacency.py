"""Directed adjacency storage with base/extra edge separation.

The paper represents a fixed graph index as ``G = (V, E_{base} ∪ E_{extra})``
(Sec. 5.3): ``E_{base}`` comes from the underlying index construction (HNSW,
NSG, …) and ``E_{extra}`` is added by NGFix/RFix.  Extra edges carry their
Escape Hardness value (the paper stores 16 bits per extra edge) which drives
eviction when a node's extra out-degree budget is exhausted, and partial
rebuilds drop only extra edges.  Tombstones implement lazy deletion.

The store is arrays only: the **slab** holds every node's out-neighbours
in one int32 row of ``(capacity, width)`` — ``base_count[u]`` base edges,
then extra edges in insertion order up to ``degree[u]`` — and a float64
array beside it holds each extra edge's EH tag.  Mutators edit the rows in
place; readers copy out of them.  Both executors walk the slab as it is
written (:meth:`AdjacencyStore.neighbors` is a row view,
:meth:`AdjacencyStore.native_graph` hands slab and degree to ``_beam.c``),
so construction, ``add``, WAL replay and ``fix_query`` search the graph
without freezing it.  A call site names this graph by the store itself (it
is callable like a ``neighbors_fn``), never by its bound ``neighbors``: a
plain callable has no native description.  :meth:`freeze` gathers the slab
into the CSR snapshot a serving epoch pins; only
:meth:`repro.serving.EpochManager.cut` calls it.  A saved index holds the
same arrays: :meth:`AdjacencyStore.arrays` hands them to
:func:`repro.io.save_index`, and :meth:`AdjacencyStore.install` checks and
adopts them at load, with no per-node replay.
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
    """Base edges, extra edges with their EH tags, and tombstones, held in
    the arrays the module docstring describes."""

    def __init__(self, n_nodes: int):
        if n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {n_nodes}")
        self._n = n_nodes
        # Rows widen (doubling) when a node outgrows them; ``_native`` is
        # the spec of the current arrays at the current node count.
        self._slab = np.zeros((n_nodes, 8), dtype=np.int32)
        self._eh = np.zeros((n_nodes, 8), dtype=np.float64)
        self._degree = np.zeros(n_nodes, dtype=np.int32)
        self._base_count = np.zeros(n_nodes, dtype=np.int32)
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

    def _widen(self, degree: int) -> None:
        """Widen every row to hold ``degree`` edges."""
        width = self._slab.shape[1]
        if degree > width:
            # New arrays, not a resize: a spec taken earlier stays readable.
            pad = ((0, 0), (0, max(degree, 2 * width) - width))
            self._slab, self._eh = np.pad(self._slab, pad), np.pad(self._eh, pad)
            self._native = None

    def _record(self, u: int) -> None:
        """Log a copy of node ``u``'s row to the overlay (the row itself is
        rewritten by the next mutation): one record per mutation."""
        if self._overlay is not None:
            self._overlay.record_node(u, self.neighbors(u).copy())

    def _write(self, u: int, base: list[int], extras: dict) -> None:
        """Make ``base``, then ``extras`` (``{v: eh}`` in order), node
        ``u``'s row, and record it."""
        b, d = len(base), len(base) + len(extras)
        self._widen(d)
        self._slab[u, :b] = base
        if extras:
            self._slab[u, b:d] = list(extras)
            self._eh[u, b:d] = list(extras.values())
        self._degree[u], self._base_count[u] = d, b
        self._record(u)

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
        return self._n

    def grow(self, n_new: int) -> None:
        """Append ``n_new`` isolated nodes (for incremental insertion)."""
        if n_new < 0:
            raise ValueError(f"n_new must be non-negative, got {n_new}")
        size, slab = self._n, self._slab
        self._n = size + n_new
        self._degree = with_capacity(self._degree, size, self._n)
        self._base_count = with_capacity(self._base_count, size, self._n)
        self._eh = with_capacity(self._eh, size, self._n)
        self._slab = with_capacity(slab, size, self._n)
        if self._slab is not slab:
            self._native = None

    # -- edge mutation --------------------------------------------------------

    def set_base_neighbors(self, u: int, neighbors) -> None:
        """Replace node ``u``'s base neighbor list: ``neighbors`` without
        ``u`` and without repeats, in order.  A base edge supersedes an
        extra edge to the same node (see :meth:`add_base_edge`)."""
        base = list(dict.fromkeys(v for v in map(int, neighbors) if v != u))
        extras = {}
        if self._degree[u] > self._base_count[u]:
            extras = self.extra_neighbors(u)
            for v in base:
                extras.pop(v, None)
        self._write(u, base, extras)

    def add_base_edge(self, u: int, v: int) -> bool:
        """Add base edge u->v; returns False if it already existed.  An
        extra edge u->v is dropped for it — as :meth:`add_extra_edge`
        refuses one beside a base edge — so ``u``'s row never holds ``v``
        twice (a node scored twice overflows the native kernel's scratch,
        and it hands the search back)."""
        u, v = int(u), int(v)
        base = self.base_neighbors(u)
        if u == v or v in base:
            return False
        d = int(self._degree[u])
        if d > len(base):  # extras follow the base edges: rewrite the row
            self.set_base_neighbors(u, base + [v])
            return True
        self._widen(d + 1)  # no extras: append in place
        self._slab[u, d] = v
        self._degree[u] = self._base_count[u] = d + 1
        self._record(u)
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
        d = int(self._degree[u])
        row = self._slab[u, :d].tolist()
        if v in row:  # a base edge, or an extra edge to re-tag
            i = row.index(v)
            if i >= self._base_count[u] and eh > self._eh[u, i]:
                self._eh[u, i] = eh
            return False
        self._widen(d + 1)
        self._slab[u, d], self._eh[u, d] = v, eh
        self._degree[u] = d + 1
        self._record(u)
        return True

    def remove_extra_edge(self, u: int, v: int) -> bool:
        """Remove extra edge u->v if present."""
        extras = self.extra_neighbors(u)
        if extras.pop(v, None) is None:
            return False
        self._write(u, self.base_neighbors(u), extras)
        return True

    def evict_lowest_eh(self, u: int) -> tuple[int, float] | None:
        """Drop node ``u``'s extra edge with the smallest EH tag.

        Paper Algorithm 3 lines 13-16: when the extra-degree budget is
        exceeded, edges whose EH is low (i.e. edges that were easy to do
        without) are pruned first.  Infinite-EH edges (RFix) are never
        evicted.  The choice is the lexicographic minimum over ``(eh, v)``,
        so ties on EH deterministically evict the smallest target id — the
        outcome depends only on the edge *set*, never on insertion order,
        keeping repair runs reproducible across worker counts.
        Returns the evicted (target, eh) or None.
        """
        extras = self.extra_neighbors(u)
        finite = [(eh, v) for v, eh in extras.items() if eh != EH_INFINITE]
        if not finite:
            return None
        eh, v = min(finite)
        del extras[v]
        self._write(u, self.base_neighbors(u), extras)
        return v, eh

    # -- reads ----------------------------------------------------------------

    def base_neighbors(self, u: int) -> list[int]:
        """Base neighbors of ``u`` in order (a fresh list)."""
        return self._slab[u, :self._base_count[u]].tolist()

    def extra_neighbors(self, u: int) -> dict[int, float]:
        """Extra neighbors of ``u`` in insertion order, mapped to their EH
        tags (a fresh dict)."""
        b, d = self._base_count[u], self._degree[u]
        return dict(zip(self._slab[u, b:d].tolist(),
                        self._eh[u, b:d].tolist()))

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
        arrays were replaced)."""
        graph = self._native
        if graph is None or graph.n != self._n:
            graph = self._native = native.Graph.mutable(
                self._slab, self._degree, self._n)
        return graph

    def link_rows(self, rows, visited, first: int, last: int, entries,
                  ef: int, cap: int, slack: int, pool_cap: int):
        """:func:`repro.graphs.native.insert` on rows ``[first, last)``,
        widened first so that no row outgrows them; ``(rows linked, NDC)``
        with the overlay told of each mutation, or None (nothing written)."""
        n, base = self._n, self._base_count[:self._n]
        self._widen(max(cap + slack, int(base.max())) + 1
                    + int((self._degree[:n] - base).max()))
        visited.grow(rows.rows.shape[0])
        found = native.insert(
            rows, self._slab, self._eh, self._degree, self._base_count, n,
            first, last, entries, ef, cap, slack, pool_cap, visited._stamps,
            visited.reserve(last - first),
            native.excluded_mask(self.removed, n) if self.removed else None)
        if found is not None and self._overlay is not None:
            for u in found[2].tolist():
                self._record(u)
        return found and found[:2]

    def out_degree(self, u: int) -> int:
        return self._degree.item(u)

    def base_degree(self, u: int) -> int:
        return self._base_count.item(u)

    def extra_degree(self, u: int) -> int:
        return self._degree.item(u) - self._base_count.item(u)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.neighbors(u).tolist()

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
        return int(self._base_count[:self._n].sum())

    def n_extra_edges(self) -> int:
        return int(self._degree[:self._n].sum()) - self.n_base_edges()

    def average_out_degree(self) -> float:
        return (self.n_base_edges() + self.n_extra_edges()) / self.n_nodes

    def index_size_bytes(self) -> int:
        """Estimated serialized size: 4 B per edge id + 2 B EH per extra edge.

        Mirrors the paper's accounting (Sec. 6.5): NGFix* stores an extra
        16-bit EH per added edge, making it slightly larger per-edge than
        RoarGraph/NSG.
        """
        return 4 * self.n_base_edges() + 6 * self.n_extra_edges()

    def _slots(self) -> tuple[np.ndarray, np.ndarray]:
        """Bool masks over ``slab[:n]``: the base slots, the extra slots."""
        cols = np.arange(self._slab.shape[1])
        base = cols < self._base_count[:self._n, None]
        return base, ~base & (cols < self._degree[:self._n, None])

    # -- persistence ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """The store as :func:`repro.io.save_index` writes it, by name:
        ``slab`` and ``eh`` (their first ``n`` rows, cut to the widest
        row), ``degree``, ``base_count``, and the sorted int64
        ``tombstones`` and ``removed`` ids.  The first four are views."""
        n = self._n
        width = int(self._degree[:n].max())
        return dict(slab=self._slab[:n, :width], eh=self._eh[:n, :width],
                    degree=self._degree[:n], base_count=self._base_count[:n],
                    tombstones=np.array(sorted(self.tombstones), np.int64),
                    removed=np.array(sorted(self.removed), np.int64))

    def install(self, slab, eh, degree, base_count, tombstones,
                removed) -> None:
        """Adopt arrays laid out as :meth:`arrays` names them, unrecorded,
        after checking dtypes, shapes, ``0 <= base_count <= degree <=
        width`` and every id against ``[0, n)``: ``ValueError`` names the
        first field that fails, before the kernel can read it."""
        n, width = self._n, slab.shape[1] if slab.ndim == 2 else -1
        for name, array, dtype, shape in (
                ("slab", slab, np.int32, (n, width)),
                ("eh", eh, np.float64, (n, width)),
                ("degree", degree, np.int32, (n,)),
                ("base_count", base_count, np.int32, (n,)),
                ("tombstones", tombstones, np.int64, (tombstones.size,)),
                ("removed", removed, np.int64, (removed.size,))):
            if array.dtype != dtype or array.shape != shape:
                raise ValueError(
                    f"{name}: expected {np.dtype(dtype)} of shape {shape}, "
                    f"got {array.dtype} of shape {array.shape}")
        if ((degree < 0) | (degree > width)).any():
            raise ValueError(f"degree: outside [0, width {width}]")
        if ((base_count < 0) | (base_count > degree)).any():
            raise ValueError("base_count: outside [0, degree]")
        live = slab[np.arange(width) < degree[:, None]]
        for name, ids in (("slab", live), ("tombstones", tombstones),
                          ("removed", removed)):
            if ids.size and (ids.min() < 0 or ids.max() >= n):
                raise ValueError(f"{name}: an id outside [0, {n})")
        self._slab, self._eh = slab, eh
        self._degree, self._base_count = degree, base_count
        self.tombstones = set(tombstones.tolist())
        self.removed = set(removed.tolist())
        self._native = None

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
        The candidates are numbered row by row, each row's extras in
        insertion order, and the overlay gets one record per candidate.
        Returns the number removed.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        n = self._n
        extra = self._slots()[1]
        finite = extra & (self._eh[:n] != EH_INFINITE)
        rows, cols = np.nonzero(finite)
        n_drop = int(round(fraction * rows.size))
        self._eh[:n][finite] = 0.0
        if n_drop:
            picks = rng.choice(rows.size, size=n_drop, replace=False)
            extra[rows[picks], cols[picks]] = False
            for u in np.unique(rows[picks]).tolist():
                b, d = int(self._base_count[u]), int(self._degree[u])
                kept = extra[u, b:d]
                end = b + int(kept.sum())
                self._slab[u, b:end] = self._slab[u, b:d][kept]
                self._eh[u, b:end] = self._eh[u, b:d][kept]
                self._degree[u] = end
        for u in rows.tolist():
            self._record(u)
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
        A node that loses base and extra edges is recorded twice, base first.
        """
        self.removed |= set(deleted)
        gone = np.fromiter(deleted, dtype=np.int64, count=len(deleted))
        # Only rows naming a deleted node, and the deleted rows, change.
        hit = np.isin(self._slab[:self._n], gone) & np.logical_or(*self._slots())
        rows = hit.any(axis=1) | np.isin(np.arange(self._n), gone)
        for u in np.flatnonzero(rows).tolist():
            if u in deleted:
                self._write(u, [], {})
                continue
            base, extras = self.base_neighbors(u), self.extra_neighbors(u)
            kept = [v for v in base if v not in deleted]
            if len(kept) != len(base):
                base = kept
                self._write(u, base, extras)
            if any(v in deleted for v in extras):
                self._write(u, base, {v: eh for v, eh in extras.items()
                                      if v not in deleted})

    def copy(self) -> "AdjacencyStore":
        """Deep copy (used by ablation benches to fork a base graph)."""
        out = AdjacencyStore(self._n)
        out.install(**{k: v.copy() for k, v in self.arrays().items()})
        return out
