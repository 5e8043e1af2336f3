"""Bottom-layer insertion: the one routine behind build, ``add`` and WAL replay.

HNSW's bottom layer is what NGFix repairs (paper Sec. 6.1) and what every
incremental write lands in (Sec. 5.5.1): search the live graph for
``ef_construction`` candidates, select with the RNG heuristic (nearest
backfill), link both directions, re-prune a reverse neighbour that overflowed
its budget past the shrink slack.  :class:`BottomLayer` is that routine and
the one :meth:`~BottomLayer.insert`, mixed into
:class:`~repro.graphs.hnsw.HNSW` — built, loaded from a file or recovered
from a snapshot, the same class — so a recovered store's inserts are the
live store's.  Every insert enters at the index's navigating node
(:meth:`~repro.graphs.base.GraphIndex.medoid`).  It runs as one call of
``repro_insert`` (``_beam.c``) on the slab; ``_insert_bottom``, its
reference, links any row the kernel cannot (no core, a proxy or subclassed
scorer, a row it refused), with native search and prune.
"""

from __future__ import annotations

import numpy as np

from repro.graphs import native
from repro.graphs.pruning import _POOL_CAP, rng_prune_backfill
from repro.graphs.search import _NATIVE_QUERIES, greedy_search, unique_entries


class BottomLayer:
    """Mixin of a :class:`~repro.graphs.base.GraphIndex` that grows.

    The host provides ``dc``, ``adjacency``, ``_visited`` and ``medoid()``
    (every ``GraphIndex`` does) and sets ``M0`` (bottom-layer degree
    budget) and ``ef_construction``.
    """

    M0: int
    ef_construction: int
    # Shrink with a small slack so re-pruning amortizes over several
    # reverse-edge additions instead of firing on every one (quality is
    # unaffected: degree only ever overshoots the cap by the slack).
    _shrink_slack = 4

    def insert(self, vectors: np.ndarray) -> list[int]:
        """Insert new vectors (one row or a block), returning their ids
        (paper Sec. 5.5.1).

        The rows are linked in order by one :meth:`_insert_rows` call,
        entering where searches do: at the navigating node as it stands
        before they land.
        """
        entry = self.medoid()
        first = self.dc.append(vectors)  # normalizes (cosine)
        last = self.dc.size
        self.adjacency.grow(last - first)
        self._insert_rows(first, last, [entry])
        return list(range(first, last))

    def _insert_rows(self, first: int, last: int, entries: list[int]) -> None:
        """Link rows ``[first, last)`` (already in ``dc`` and ``adjacency``)
        in order, searching from ``entries``: one native call writes what
        :meth:`_insert_bottom` would — edges, ties, NDC, overlay records —
        and that reference links the rows it did not."""
        dc, done = self.dc, 0
        rows = native.spec(dc, "native_rows") if native.enabled() else None
        found = rows and native.spec(
            self.adjacency, "link_rows", rows, self._visited, first, last,
            unique_entries(entries),
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
            dc, adjacency, entries,
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
