"""Bottom-layer insertion: the one routine behind build, ``add`` and WAL replay.

HNSW's bottom layer is what NGFix repairs (paper Sec. 6.1) and what every
incremental write lands in (Sec. 5.5.1): search the live graph for
``ef_construction`` candidates, select with the RNG heuristic (nearest
backfill), link both directions, re-prune a reverse neighbour that overflowed
its budget past the shrink slack.  :class:`BottomLayer` is that routine, the
navigating node it starts from and the one :meth:`~BottomLayer.insert`,
mixed into the two indexes that grow — :class:`~repro.graphs.hnsw.HNSW`
(construction and ``insert``) and
:class:`~repro.durability.recovery.ReplayableIndex` (replay and post-recovery
writes) — so a recovered store's inserts are the live store's.  It runs as
one call of ``repro_insert`` (``_beam.c``) on the slab; ``_insert_bottom``,
its reference, links any row the kernel cannot (no core, a proxy or
subclassed scorer, a row it refused), with native search and prune.
"""

from __future__ import annotations

import numpy as np

from repro.graphs import native
from repro.graphs.base import medoid_id
from repro.graphs.pruning import _POOL_CAP, rng_prune_backfill
from repro.graphs.search import _NATIVE_QUERIES, greedy_search, unique_entries


class BottomLayer:
    """Mixin of a :class:`~repro.graphs.base.GraphIndex` that grows.

    The host provides ``dc``, ``adjacency`` and ``_visited`` (every
    ``GraphIndex`` does) and sets ``M0`` (bottom-layer degree budget) and
    ``ef_construction``.
    """

    M0: int
    ef_construction: int
    # Shrink with a small slack so re-pruning amortizes over several
    # reverse-edge additions instead of firing on every one (quality is
    # unaffected: degree only ever overshoots the cap by the slack).
    _shrink_slack = 4
    #: The navigating node and the row count it was elected at.
    _medoid: int | None = None
    _medoid_size = 0

    def _is_dead(self, node: int) -> bool:
        return (node in self.adjacency.tombstones
                or node in self.adjacency.removed)

    def medoid(self) -> int:
        """The navigating node: a live row nearest the base-data centroid.

        Exact (one scan of the rows, compacted and tombstoned ones masked)
        the first time and whenever the current one died; after rows were
        appended it is re-elected NSG/Vamana style, by one search for the
        centroid starting from the current one — O(ef) instead of O(n) per
        ``add`` (the centroid itself is a running sum, see
        ``DistanceComputer.centroid``).
        """
        dc = self.dc
        if self._medoid is None or self._is_dead(self._medoid):
            self._medoid = medoid_id(dc, self.adjacency.excluded_ids())
        elif self._medoid_size != dc.size:
            saved = dc.ndc
            found = greedy_search(
                dc, self.adjacency, [self._medoid], dc.centroid(),
                k=self.ef_construction, ef=self.ef_construction,
                visited=self._visited)
            dc.ndc = saved  # index bookkeeping, not query work
            self._medoid = next((i for i in found.ids.tolist()
                                 if not self._is_dead(i)), self._medoid)
        self._medoid_size = dc.size
        return self._medoid

    def _live_entries(self, entries: list[int], new_id: int) -> list[int]:
        """``entries`` without the dead ones; when none is left, the
        navigating node if it is alive, else any live node.  A compacted
        node has no edges: an insert that entered there would link to it
        alone and be unreachable from everywhere else."""
        adjacency = self.adjacency
        if not adjacency.tombstones and not adjacency.removed:
            return entries
        live = [e for e in entries if not self._is_dead(e)]
        if live:
            return live
        if self._medoid is not None and not self._is_dead(self._medoid):
            return [self._medoid]
        return [next((i for i in range(self.dc.size)
                      if i != new_id and not self._is_dead(i)), entries[0])]

    def entry_points(self, query: np.ndarray) -> list[int]:
        return [self.medoid()]

    def insert(self, vector: np.ndarray) -> int:
        """Insert one new vector, returning its id (paper Sec. 5.5.1).

        The insert enters where searches do, at the navigating node as it
        stands before the row lands — never at a node a deletion has since
        stripped of its edges.
        """
        entry = self.medoid()
        new_id = self.dc.append(vector)  # normalizes (cosine)
        self.adjacency.grow(1)
        self._insert_rows(new_id, new_id + 1, [entry])
        return new_id

    def _insert_rows(self, first: int, last: int, entries: list[int]) -> None:
        """Link rows ``[first, last)`` (already in ``dc`` and ``adjacency``)
        in order, searching from ``entries``: one native call writes what
        :meth:`_insert_bottom` would — edges, ties, NDC, overlay records —
        and that reference links the rows it did not."""
        dc, done = self.dc, 0
        rows = native.spec(dc, "native_rows") if native.enabled() else None
        found = rows and native.spec(
            self.adjacency, "link_rows", rows, self._visited, first, last,
            unique_entries(self._live_entries(entries, first)),
            self.ef_construction, self.M0, self._shrink_slack, _POOL_CAP)
        if found:
            done, ndc = found
            dc.ndc += ndc
            _NATIVE_QUERIES.inc(done)
        for new_id in range(first + done, last):
            self._insert_bottom(new_id, entries)

    def _insert_bottom(self, new_id: int, entries: list[int]) -> None:
        """Link row ``new_id`` (already in ``dc`` and ``adjacency``) into
        the bottom layer, searching from ``entries`` — the reference
        executor of the insert.  Neighbours are chosen by
        :func:`~repro.graphs.pruning.rng_prune_backfill` (hnswlib's
        ``keepPrunedConnections``: pruned candidates backfill the budget).
        """
        dc, adjacency, cap = self.dc, self.adjacency, self.M0
        found = greedy_search(
            dc, adjacency, self._live_entries(entries, new_id),
            dc.data[new_id], k=self.ef_construction, ef=self.ef_construction,
            visited=self._visited, prepared=True)
        keep = found.ids != new_id
        if adjacency.removed:  # stale rows must never be re-linked
            keep &= [i not in adjacency.removed for i in found.ids.tolist()]
        cand_ids, cand_d = found.ids[keep], found.distances[keep]
        selected = rng_prune_backfill(dc, new_id, cand_ids, cap,
                                      distances=cand_d)
        adjacency.set_base_neighbors(new_id, selected)
        for v in selected:
            adjacency.add_base_edge(v, new_id)
            if adjacency.base_degree(v) > cap + self._shrink_slack:
                neigh = np.array(adjacency.base_neighbors(v),
                                 dtype=np.int64)
                adjacency.set_base_neighbors(
                    v, rng_prune_backfill(dc, v, neigh, cap))
