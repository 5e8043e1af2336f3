"""Index maintenance: insertion and deletion (Sec. 5.5).

Insertion (5.5.1): new points enter via the base graph's own insertion
algorithm (HNSW here).  After many insertions the NGFix extra edges no
longer serve the new points, so a **partial rebuild** drops a random
proportion of extra edges, resets the surviving EH tags, and re-runs
NGFix*/RFix on a sample of the historical queries — recovering most of a
full rebuild's quality at a fraction of its cost (Fig. 18).

Deletion (5.5.2): tombstone (lazy) deletion first — deleted points still
navigate but never appear in results.  Once tombstones exceed a threshold
fraction of the corpus, a compaction pass physically strips deleted points
and their incoming edges, then repairs the damaged neighborhoods by running
NGFix with each *deleted point treated as a query* (its former neighborhood
is exactly a region whose connectivity the deletion broke) — matching full
reconstruction quality at ~7% of its cost (Fig. 19).
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.escape_hardness import escape_hardness
from repro.core.fixer import NGFixer
from repro.core.ngfix import ngfix_query
from repro.distances import pairwise_distances
from repro.graphs.base import medoid_id
from repro.utils.rng_utils import ensure_rng
from repro.utils.validation import check_fraction, check_matrix


def smallest_stable(values: np.ndarray, count: int) -> np.ndarray:
    """``np.argsort(values, kind="stable")[:count]`` without sorting past
    the cut: a partition finds the ``count``-th smallest value and only the
    positions at or below it are sorted (ties keep position order)."""
    if count < values.shape[0]:
        cut = np.partition(values, count - 1)[count - 1]
        if not np.isnan(cut):
            head = np.flatnonzero(values <= cut)
            return head[np.argsort(values[head], kind="stable")][:count]
    return np.argsort(values, kind="stable")[:count]


class IndexMaintainer:
    """Insert/delete lifecycle manager around an :class:`NGFixer`.

    Parameters
    ----------
    fixer:
        The fixed index to maintain; its base index must support ``insert``
        for insertion maintenance (HNSW does).
    history:
        Historical queries available for partial rebuilds.
    compact_threshold:
        Tombstone fraction that triggers physical compaction (the paper
        suggests ~1%; the default is scaled up for small corpora).
    cache:
        Optional answer cache to invalidate on deletion — a
        :class:`~repro.core.hash_cache.CachedSearcher` (``invalidate``) or
        bare :class:`~repro.core.hash_cache.HashTableCache`
        (``drop_if_contains``); cached answers referencing deleted points
        are evicted the moment the points are tombstoned.
    on_change:
        Optional nullary callback fired after every mutating operation
        (insert, delete, compaction, partial rebuild).  The serving layer's
        :class:`~repro.serving.MaintenanceScheduler` hooks this to decide
        when the accumulated delta overlay is worth merging into a fresh
        epoch.
    """

    def __init__(self, fixer: NGFixer, history: np.ndarray,
                 compact_threshold: float = 0.05,
                 seed: int | np.random.Generator | None = 0,
                 cache=None, on_change=None):
        check_fraction(compact_threshold, "compact_threshold")
        self.fixer = fixer
        self.cache = cache
        self.on_change = on_change
        history = np.asarray(history, dtype=np.float32)
        # An empty history is legal (no partial rebuilds possible, insert/
        # delete maintenance still works).
        self.history = (history if history.size == 0
                        else check_matrix(history, "history"))
        self.compact_threshold = compact_threshold
        self._rng = ensure_rng(seed)
        self.last_compaction_seconds = 0.0
        self.last_rebuild_seconds = 0.0

    # -- insertion ------------------------------------------------------------

    def insert(self, vectors: np.ndarray) -> list[int]:
        """Insert vectors through the base graph's insertion algorithm."""
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float32))
        if not hasattr(self.fixer.index, "insert"):
            raise TypeError(
                f"base index {type(self.fixer.index).__name__} does not "
                "support incremental insertion")
        ids = [self.fixer.index.insert(v) for v in vectors]
        # The medoid drifts as data grows; re-elect the fixed entry (one
        # search from the current one — the index never elects a dead row).
        self.fixer.entry = self.fixer.index.medoid()
        self._notify()
        return ids

    def _notify(self) -> None:
        if self.on_change is not None:
            self.on_change()

    def partial_rebuild(self, proportion: float, drop_fraction: float = 0.2) -> dict:
        """Partial rebuild with history sample ``proportion`` (Sec. 5.5.1).

        Step 1: randomly drop ``drop_fraction`` of extra edges and reset the
        EH of survivors (stale hardness no longer reflects the graph).
        Step 2: re-run NGFix*/RFix on ``proportion`` of the history.
        Returns timing and edge accounting.
        """
        check_fraction(proportion, "proportion")
        check_fraction(drop_fraction, "drop_fraction")
        start = time.perf_counter()
        dropped = self.fixer.adjacency.drop_extra_fraction(drop_fraction, self._rng)
        n_sample = int(round(proportion * len(self.history)))
        if n_sample:
            picks = self._rng.choice(len(self.history), size=n_sample, replace=False)
            self.fixer.fit(self.history[picks])
        self.last_rebuild_seconds = time.perf_counter() - start
        self._notify()
        return {
            "dropped_extra_edges": dropped,
            "history_used": n_sample,
            "seconds": self.last_rebuild_seconds,
        }

    # -- deletion -------------------------------------------------------------

    def delete(self, ids) -> bool:
        """Lazily delete points; compacts when the threshold trips.

        Returns True if a compaction ran.
        """
        tombstones = self.fixer.adjacency.tombstones
        ids = np.atleast_1d(np.asarray(ids, dtype=np.int64))
        for i in ids:
            i = int(i)
            if not 0 <= i < self.fixer.dc.size:
                raise IndexError(f"id {i} out of range [0, {self.fixer.dc.size})")
            tombstones.add(i)
        if self.cache is not None:
            drop = getattr(self.cache, "invalidate", None)
            if drop is None:
                drop = self.cache.drop_if_contains
            drop(ids)
        if len(tombstones) > self.compact_threshold * self.fixer.dc.size:
            self.compact()
            return True
        self._notify()
        return False

    def compact(self, repair: bool = True, repair_k: int | None = None) -> dict:
        """Physically remove tombstoned points; optionally repair via NGFix.

        Repair treats each deleted point as a query: compute its top-k
        remaining neighbors, measure EH, and let NGFix reconnect the region
        (Sec. 5.5.2, second challenge).  ``repair_k`` controls the repaired
        neighborhood size; the paper uses a large one for deletions (its
        deletion experiments search with ef=800), so the default is twice the
        fixer's k.
        """
        start = time.perf_counter()
        deleted = set(self.fixer.adjacency.tombstones)
        if not deleted:
            return {"deleted": 0, "seconds": 0.0}
        self.fixer.adjacency.remove_node_edges(deleted)

        repaired = 0
        gone = self.fixer.adjacency.removed
        if repair and len(gone) < self.fixer.dc.size:
            config = self.fixer.config
            alive_mask = np.ones(self.fixer.dc.size, dtype=bool)
            # Mask every compacted id ever (remove_node_edges above folded
            # this round into adjacency.removed): repair must not target
            # rows whose nodes were stripped in an earlier compaction.
            alive_mask[np.fromiter(gone, dtype=np.int64, count=len(gone))] = False
            alive = np.flatnonzero(alive_mask)
            # A store smaller than K_max repairs over every survivor.
            k = repair_k if repair_k is not None else 2 * config.k
            K_max = min(config.k_max(k), alive.size)
            k = min(k, K_max)
            deleted_arr = np.fromiter(deleted, dtype=np.int64)
            # Exact neighborhoods of the deleted points among survivors.
            dists = pairwise_distances(
                self.fixer.dc.data[deleted_arr], self.fixer.dc.data[alive],
                self.fixer.dc.metric)
            for row in dists:
                nn_ids = alive[smallest_stable(row, K_max)]
                eh = escape_hardness(self.fixer.adjacency, nn_ids, k)
                ngfix_query(
                    self.fixer.adjacency, self.fixer.dc, eh,
                    eh_threshold=config.eh_threshold,
                    max_extra_degree=config.max_extra_degree,
                    evict_strategy=config.evict_strategy,
                    rng=self._rng,
                )
                repaired += 1

        self.fixer.adjacency.tombstones.clear()
        # Entry point may have been deleted; re-elect among the survivors
        # (adjacency.removed covers this round and every earlier one).
        if self.fixer.entry in deleted:
            self.fixer.entry = medoid_id(self.fixer.dc,
                                         self.fixer.adjacency.removed)
        self.last_compaction_seconds = time.perf_counter() - start
        self._notify()
        return {
            "deleted": len(deleted),
            "repaired_regions": repaired,
            "seconds": self.last_compaction_seconds,
        }
