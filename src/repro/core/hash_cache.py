"""Hash-table answer cache for exactly repeated queries (Sec. 7).

When test queries overlap historical ones, hashing the query bytes and
returning the stored ground truth short-circuits graph search (the paper
measures ~9% of graph-search latency on MainSearch).  The cache cannot
generalize to unseen queries and costs memory per stored answer — both
trade-offs the paper calls out — so :class:`CachedSearcher` composes it with
a graph index: hit → cached answer, miss → ANNS.  Batched searches partition
the block into hits and misses and run the engine only on the misses, so the
cache composes with the throughput-optimal path too.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.graphs.search import SearchResult
from repro.obs import OBS, TRACES, QueryTrace

_CACHE_HITS = OBS.counter(
    "cache_hits", "hash-cache lookups answered from the store")
_CACHE_MISSES = OBS.counter(
    "cache_misses", "hash-cache lookups that fell through to the index")


def _query_key(query: np.ndarray, algorithm: str) -> bytes:
    digest = hashlib.new(algorithm)
    digest.update(np.ascontiguousarray(query, dtype=np.float32).tobytes())
    return digest.digest()


class HashTableCache:
    """Exact-match query -> top-k answer store keyed by a byte-level hash."""

    def __init__(self, algorithm: str = "md5"):
        if algorithm not in hashlib.algorithms_available:
            raise ValueError(f"unknown hash algorithm {algorithm!r}")
        self.algorithm = algorithm
        self._store: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}
        self.hits = 0
        self.misses = 0
        # Callback gauges track the most recently constructed cache (tests
        # and services alike build one long-lived instance).
        OBS.gauge_fn("cache_entries", lambda: len(self._store),
                     "answers stored in the hash cache")
        OBS.gauge_fn("cache_memory_bytes", self.memory_bytes,
                     "approximate hash-cache footprint in bytes")
        OBS.gauge_fn("cache_hit_ratio", self.hit_ratio,
                     "fraction of hash-cache lookups that hit")

    def __len__(self) -> int:
        return len(self._store)

    def hit_ratio(self) -> float:
        """Fraction of lookups served from the cache (0.0 before any)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def put(self, query: np.ndarray, ids: np.ndarray, distances: np.ndarray) -> None:
        """Store a query's answer (overwrites a prior entry).

        The arrays are always copied: ``np.asarray`` would alias the
        caller's buffers whenever the dtypes already match, and a caller
        mutating its ids/distances in place afterwards would silently
        corrupt the cached answer (``get`` copies on the way out for the
        same reason).
        """
        ids = np.array(ids, dtype=np.int64, copy=True)
        distances = np.array(distances, dtype=np.float64, copy=True)
        if ids.shape != distances.shape:
            raise ValueError("ids and distances must align")
        self._store[_query_key(query, self.algorithm)] = (ids, distances)

    def get(self, query: np.ndarray, k: int) -> SearchResult | None:
        """Cached answer if present *and* covering k results, else None."""
        entry = self._store.get(_query_key(query, self.algorithm))
        if entry is None or entry[0].shape[0] < k:
            self.misses += 1
            _CACHE_MISSES.inc()
            return None
        self.hits += 1
        _CACHE_HITS.inc()
        return SearchResult(ids=entry[0][:k].copy(), distances=entry[1][:k].copy())

    def drop_if_contains(self, deleted) -> int:
        """Remove every cached answer containing any of the ``deleted`` ids.

        Deletion invalidation: a stored answer that references a deleted
        point is stale in a way graph search would never be (tombstones are
        filtered from live results), so the whole entry is evicted and the
        next lookup falls through to the index.  Returns the number of
        entries dropped.
        """
        if np.isscalar(deleted):
            deleted = (deleted,)
        deleted = {int(i) for i in deleted}
        if not deleted:
            return 0
        stale = [key for key, (ids, _) in self._store.items()
                 if not deleted.isdisjoint(ids.tolist())]
        for key in stale:
            del self._store[key]
        return len(stale)

    def memory_bytes(self) -> int:
        """Approximate store footprint (keys + int64 ids + float64 dists)."""
        digest_len = hashlib.new(self.algorithm).digest_size
        return sum(digest_len + ids.nbytes + d.nbytes
                   for ids, d in self._store.values())


class CachedSearcher:
    """Hash-table cache in front of any index (hit → stored ground truth)."""

    def __init__(self, index, cache: HashTableCache | None = None):
        self.index = index
        self.cache = cache or HashTableCache()

    @property
    def dc(self):
        return self.index.dc

    def warm(self, queries: np.ndarray, ids: np.ndarray, distances: np.ndarray) -> None:
        """Preload answers (e.g. historical queries with their ground truth)."""
        for i, query in enumerate(np.atleast_2d(queries)):
            self.cache.put(query, ids[i], distances[i])

    def invalidate(self, ids) -> int:
        """Drop cached answers referencing ``ids`` (call on deletion)."""
        return self.cache.drop_if_contains(ids)

    def _cached(self, query: np.ndarray, k: int) -> SearchResult | None:
        """Cache lookup with the tombstone-staleness guard applied."""
        hit = self.cache.get(query, k)
        if hit is None:
            return None
        tombstones = getattr(getattr(self.index, "adjacency", None),
                             "tombstones", None)
        if tombstones and not tombstones.isdisjoint(hit.ids.tolist()):
            # A deletion bypassed invalidate(); purge all stale entries
            # and treat this lookup as a miss.
            self.cache.drop_if_contains(tombstones)
            self.cache.hits -= 1
            self.cache.misses += 1
            return None
        if OBS.enabled:
            TRACES.record(QueryTrace(k=k, cache_hit=True))
        return hit

    def search(self, query: np.ndarray, k: int, ef: int | None = None) -> SearchResult:
        hit = self._cached(query, k)
        if hit is not None:
            return hit
        return self.index.search(query, k=k, ef=ef)

    def search_batch(self, queries: np.ndarray, k: int,
                     ef: int | None = None,
                     batch_size: int = 32) -> list[SearchResult]:
        """Batched search: cached hits answer instantly, only misses run.

        The block is partitioned into cache hits and misses; the misses go
        through the underlying index's batch engine in one call (falling
        back to its sequential ``search`` when it has no batched path), and
        the results are re-interleaved in query order.  Results are
        identical to calling :meth:`search` per query.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        results: list[SearchResult | None] = [None] * queries.shape[0]
        miss_rows: list[int] = []
        for i, query in enumerate(queries):
            hit = self._cached(query, k)
            if hit is not None:
                results[i] = hit
            else:
                miss_rows.append(i)
        if miss_rows:
            batch_fn = getattr(self.index, "search_batch", None)
            if batch_fn is not None:
                missed = batch_fn(queries[miss_rows], k, ef,
                                  batch_size=batch_size)
            else:
                missed = [self.index.search(queries[i], k=k, ef=ef)
                          for i in miss_rows]
            for i, result in zip(miss_rows, missed):
                results[i] = result
        return results  # type: ignore[return-value]
