"""VectorStore — the batteries-included facade a downstream service uses.

Ties the library together behind one object: an HNSW base graph with
NGFix* fixing, online workload adaptation, payload storage, deletion with
automatic repair, and persistence.  Everything underneath is the public
API; the store only sequences it.

    store = VectorStore(dim=48, metric="cosine")
    store.add(vectors, payloads=[{"url": ...}, ...])
    store.fit_history(historical_queries)         # NGFix* repair
    hits = store.search(query, k=10)              # [(id, distance, payload)]
    store.delete([3, 17])
    store.save("index.npz")
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import pathlib
from typing import Any, Sequence

import numpy as np

from repro.config import CONFIG_NAME, StoreConfig
from repro.core.fixer import NGFixer
from repro.core.maintenance import IndexMaintainer
from repro.distances import Metric
from repro.durability.snapshot import SnapshotInfo, SnapshotManager, atomic_write_text
from repro.durability.wal import WriteAheadLog
from repro.graphs.hnsw import HNSW
from repro.io import load_index, save_index
from repro.quantization.adc import ADCComputer
from repro.quantization.pq import ProductQuantizer
from repro.serving import EpochManager, MaintenanceScheduler, ServingSearcher


class VectorStore:
    """A small vector database around an NGFix*-maintained HNSW graph.

    ``dim``, ``metric`` and every other keyword except the two locations
    are the fields of :class:`~repro.config.StoreConfig`, which documents
    them and holds their defaults and validation; the validated object is
    :attr:`config`.

    Parameters
    ----------
    wal_dir:
        When set, the store is *durable*: every acknowledged
        insert/delete — plus scheduler repair and merge commits — is
        journaled to a write-ahead log in this directory before the call
        returns, and :meth:`checkpoint` writes atomic snapshots there.
        After a crash, :func:`repro.durability.recover` rebuilds the store
        from snapshot + WAL tail.  The directory must be fresh (or fully
        checkpointed-and-pruned); reopening one with history raises —
        recovery, not blind appending, is the restart path.
    memmap_path:
        When set, :meth:`build` spills the raw vector matrix to this file
        and serves it through ``np.memmap`` — the disk-resident vector
        tier.  With ``compressed`` the traversal never touches it; only
        re-rank gathers page rows in.
    """

    def __init__(self, dim: int, metric: Metric | str = StoreConfig.metric, *,
                 wal_dir: str | pathlib.Path | None = None,
                 memmap_path: str | pathlib.Path | None = None, **settings):
        config = self.config = StoreConfig(dim=dim, metric=metric, **settings)
        # No runtime path changes these three, so they stay plain attributes.
        self.dim, self.metric = config.dim, config.metric
        self.fix_config = config.fix_config
        self._memmap_path = (None if memmap_path is None
                             else pathlib.Path(memmap_path))
        self._adc: ADCComputer | None = None
        self._shared_pq: ProductQuantizer | None = None
        self._payloads: dict[int, Any] = {}
        self._pending: list[np.ndarray] = []
        self._fixer: NGFixer | None = None
        self._maintainer: IndexMaintainer | None = None
        self._history: list[np.ndarray] = []
        self._manager: EpochManager | None = None
        self._searcher: ServingSearcher | None = None
        self._scheduler: MaintenanceScheduler | None = None
        self._wal: WriteAheadLog | None = None
        self._snapshots: SnapshotManager | None = None
        self._last_checkpoint_seq = 0
        if wal_dir is not None:
            self._init_durability(pathlib.Path(wal_dir))

    def _init_durability(self, wal_dir: pathlib.Path) -> None:
        wal_dir.mkdir(parents=True, exist_ok=True)
        has_history = (
            any(p.stat().st_size > 0 for p in wal_dir.glob("wal-*.log"))
            or any(wal_dir.glob("snapshot-*.manifest.json")))
        if has_history:
            raise RuntimeError(
                f"{wal_dir} already holds WAL records or snapshots; "
                "restart through repro.durability.recover() instead of "
                "constructing a fresh store over existing history")
        self._wal = WriteAheadLog(wal_dir, sync_every=self.config.sync_every)
        self._snapshots = SnapshotManager(wal_dir)
        self._persist_config()

    def _persist_config(self) -> None:
        """Write the running settings next to the WAL (no-op unless durable):
        what :func:`repro.durability.recover` restarts the store with."""
        if self._wal is not None:
            atomic_write_text(self._wal.directory / CONFIG_NAME,
                              json.dumps(self.config.to_dict()))

    # -- ingestion ----------------------------------------------------------

    def __len__(self) -> int:
        n = sum(v.shape[0] for v in self._pending)
        if self._fixer is not None:
            n += self._fixer.dc.size - len(self.deleted_ids)
        return n

    @property
    def is_built(self) -> bool:
        return self._fixer is not None

    @property
    def dc(self):
        """The distance computer (index protocol; None before build)."""
        return self._fixer.dc if self._fixer is not None else None

    @property
    def deleted_ids(self) -> set[int]:
        if self._fixer is None:
            return set()
        # adjacency.removed (persisted in snapshots) covers compacted ids,
        # so recovered stores report them too.
        return (set(self._fixer.adjacency.tombstones)
                | self._fixer.adjacency.removed)

    def add(self, vectors: np.ndarray,
            payloads: Sequence[Any] | None = None) -> list[int]:
        """Add vectors (with optional per-vector payloads); returns ids.

        Before the first build, vectors accumulate and are indexed together;
        afterwards each goes through HNSW's incremental insertion.  Stores
        reloaded with :meth:`load` cannot insert (their graph is frozen —
        see the :meth:`load` docstring); stores rebuilt by
        :func:`repro.durability.recover` can.

        With a ``wal_dir``, the batch is journaled before this returns:
        an id you received back is an *acknowledged* write and survives a
        crash (WAL payloads must be JSON-serializable).
        """
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float32))
        if vectors.shape[1] != self.dim:
            raise ValueError(f"expected dimension {self.dim}, got {vectors.shape[1]}")
        if payloads is not None and len(payloads) != vectors.shape[0]:
            raise ValueError("payloads length must match vectors")
        if (self._fixer is not None
                and not hasattr(self._fixer.index, "insert")):
            raise RuntimeError(
                f"this store serves a frozen {type(self._fixer.index).__name__} "
                "(VectorStore.load() artifact) without HNSW builder state, so "
                "add() is unavailable; rebuild from vectors, or restore "
                "through repro.durability.recover() which loads snapshots "
                "insert-capable")

        if self._fixer is None:
            first_id = sum(v.shape[0] for v in self._pending)
            self._pending.append(vectors)
            ids = list(range(first_id, first_id + vectors.shape[0]))
            if self._wal is not None:
                self._wal.log_insert(first_id, vectors, payloads)
        else:
            # Journal inside the write lock so the record lands in commit
            # order relative to the scheduler's own observe/merge records.
            with self._scheduler.write_lock, self._deferred_merge_notify():
                ids = self._maintainer.insert(vectors)
                self._sync_codes()
                if self._wal is not None:
                    self._wal.log_insert(ids[0] if ids else 0, vectors,
                                         payloads)
        if payloads is not None:
            for i, payload in zip(ids, payloads):
                self._payloads[i] = payload
        if self._wal is not None:
            self._maybe_checkpoint()
        return ids

    def _sync_codes(self) -> None:
        """Incrementally re-encode freshly inserted rows into the PQ codes.

        Called on the insert path (inside the write lock) so
        the compressed searcher's code matrix always covers every published
        node id; searches additionally lazy-sync as a safety net.
        """
        if self._adc is not None:
            self._adc.sync()

    @contextlib.contextmanager
    def _deferred_merge_notify(self):
        """Hold back the maintainer's merge-cadence callback while applying
        and journaling one mutation.

        The maintainer fires ``on_change`` *inside* insert/delete, which in
        inline mode can merge (and journal a merge-cut) before the mutation
        itself is journaled — inverting WAL order relative to commit order.
        Detaching the callback for the apply+journal window and firing it
        afterwards keeps the log's order equal to what actually happened;
        replay then re-triggers the same cascade at the same point.  On an
        exception the callback is restored but not fired.
        """
        notify, self._maintainer.on_change = self._maintainer.on_change, None
        try:
            yield
        finally:
            self._maintainer.on_change = notify
        if notify is not None:
            notify()

    def build(self) -> "VectorStore":
        """Index all pending vectors (idempotent after the first call)."""
        if self._fixer is not None:
            if self._pending:
                raise RuntimeError("internal: pending vectors after build")
            return self
        if not self._pending:
            raise RuntimeError("add() vectors before build()")
        data = np.vstack(self._pending)
        self._pending = []
        base = HNSW(data, self.metric, M=self.config.M,
                    ef_construction=self.config.ef_construction)
        self._fixer = NGFixer(base, self.fix_config)
        self._maintainer = IndexMaintainer(
            self._fixer, np.empty((0, self.dim), dtype=np.float32)
            if not self._history else np.vstack(self._history))
        if self._wal is not None:
            # Build-boundary marker: replay bulk-builds exactly the inserts
            # logged before this record and goes incremental after it, so
            # the recovered graph structure matches the original's.
            self._wal.log_build()
        self._attach_serving()
        return self

    def _attach_serving(self) -> None:
        """Stand up the epoch serving stack around the built index."""
        config = self.config
        if self._memmap_path is not None and not self._fixer.dc.is_memmap:
            # Spill before fitting PQ codes so the encode pass streams from
            # the file and steady-state RSS never includes the raw matrix.
            self._fixer.dc.use_memmap(self._memmap_path)
        if config.compressed:
            # A shipped codebook (apply_pq before build — the cluster
            # router's code-shipping path) is adopted as-is: ADCComputer
            # only fits an unfitted quantizer, so shared codes stay
            # mutually comparable across shards.
            pq = self._shared_pq or ProductQuantizer(
                m=config.pq_m or ADCComputer._default_m(config.dim),
                ks=config.pq_ks, metric=config.metric, seed=config.seed)
            self._adc = ADCComputer(self._fixer.dc, pq)
        self._manager = EpochManager(self._fixer.adjacency, self._fixer.entry)
        self._searcher = ServingSearcher(self._fixer, self._manager,
                                         adc=self._adc, rerank=config.rerank,
                                         beam_width=config.beam_width)
        self._scheduler = MaintenanceScheduler(
            self._fixer, self._manager, merge_every=config.merge_every,
            mode=config.scheduler_mode)
        self._maintainer.on_change = self._scheduler.note_mutations
        scheduler = self._scheduler

        def queue_depth() -> int:
            return len(scheduler._queue)

        self._searcher.queue_depth_fn = queue_depth
        self._scheduler.wal = self._wal
        if config.scheduler_mode == "thread":
            self._scheduler.start()

    # -- fixing -------------------------------------------------------------

    def fit_history(self, queries: np.ndarray) -> dict:
        """Run NGFix*/RFix over historical queries (builds first if needed).

        The bulk fit runs with overlay logging suspended — in-flight
        searches keep serving the pre-fit epoch and the fitted graph
        becomes visible atomically via a fresh epoch cut on exit.
        """
        if self._fixer is None:
            self.build()
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        self._history.append(queries)
        self._maintainer.history = np.vstack(self._history)
        with self._scheduler.bulk():
            self._fixer.fit(queries)
        return self._fixer.stats()

    def observe(self, query: np.ndarray) -> bool:
        """Feed one served query back into online fixing.

        Enqueues the query with the maintenance scheduler, which repairs
        it with the full NGFix/RFix pass off the query path (synchronously
        in "inline" mode, on the background worker in "thread" mode).

        Returns True when the query was accepted; False when admission
        control shed it (repair queue saturated or worker dead — repair
        feedback is best-effort, searches are never shed).
        """
        if self._fixer is None:
            raise RuntimeError("build() before observe()")
        return self._scheduler.observe(np.asarray(query, dtype=np.float32))

    # -- serving ------------------------------------------------------------

    def search(self, query: np.ndarray, k: int = 10, ef: int | None = None,
               where=None,
               deadline_ms: float | None = None) -> list[tuple[int, float, Any]]:
        """Top-k as (id, distance, payload) triples.

        ``where`` optionally filters by payload predicate
        (``payload -> bool``); filtered search over-fetches 4x (doubling up
        to 16x) and post-filters, the standard small-scale strategy, so very
        selective predicates may return fewer than k hits.

        ``deadline_ms`` bounds the search's latency budget: an expired
        budget returns best-so-far results instead of blocking — see
        :meth:`ServingSearcher.search
        <repro.serving.ServingSearcher.search>`.  Not combinable with
        ``where`` (filtered search re-queries, so one budget does not map
        onto it).
        """
        if self._fixer is None:
            self.build()
        query = np.asarray(query, dtype=np.float32)
        searcher = self._searcher
        if deadline_ms is not None and where is not None:
            raise ValueError("deadline_ms cannot be combined with where=")
        if where is None:
            result = searcher.search(query, k=k, ef=ef,
                                     deadline_ms=deadline_ms)
            return [(int(i), float(d), self._payloads.get(int(i)))
                    for i, d in zip(result.ids, result.distances)]

        fetch = 4 * k
        while True:
            result = searcher.search(query, k=fetch,
                                     ef=max(ef or 0, fetch))
            hits = [(int(i), float(d), self._payloads.get(int(i)))
                    for i, d in zip(result.ids, result.distances)
                    if where(self._payloads.get(int(i)))]
            if len(hits) >= k or fetch >= max(16 * k, self._fixer.dc.size):
                return hits[:k]
            fetch *= 2

    def search_batch(self, queries: np.ndarray, k: int = 10,
                     ef: int | None = None, batch_size: int = 32,
                     deadline_ms: float | None = None):
        """Batched top-k over many queries; one epoch pin per engine block.

        Returns a list of :class:`~repro.graphs.search.SearchResult` (no
        payload join — use :meth:`get_payload` for that), taking the batch
        engine, which is the throughput-optimal path.
        ``deadline_ms`` budgets the whole batch; results past the budget
        come back best-so-far with ``degraded`` set.
        """
        if self._fixer is None:
            self.build()
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        return self._searcher.search_batch(queries, k, ef,
                                           batch_size=batch_size,
                                           deadline_ms=deadline_ms)

    def get_payload(self, vector_id: int) -> Any:
        return self._payloads.get(int(vector_id))

    # -- maintenance ----------------------------------------------------------

    def delete(self, ids) -> bool:
        """Delete vectors; compaction + NGFix repair fire automatically.

        A compaction (which rewires edges store-wide) is immediately
        followed by an epoch merge so new pins see the compacted graph
        rather than paying overlay lookups for every rewired node.
        """
        if self._fixer is None:
            raise RuntimeError("build() before delete()")
        # Journal the delete before the merges it triggers (the cadence
        # callback and the post-compaction cut below), so WAL order equals
        # commit order and replay re-cuts the same epochs.
        with self._scheduler.write_lock:
            with self._deferred_merge_notify():
                compacted = self._maintainer.delete(ids)
                if self._wal is not None:
                    self._wal.log_delete(ids)
            if compacted:
                self._scheduler.merge_now()
        for i in np.atleast_1d(np.asarray(ids, dtype=np.int64)):
            self._payloads.pop(int(i), None)
        if self._wal is not None:
            self._maybe_checkpoint()
        return compacted

    def flush(self, timeout: float | None = 10.0) -> bool:
        """Drain pending online repairs and due merges (no-op before build).

        Returns True once the queue drained; False when the wait timed out
        with work still pending (also counted in ``maintenance_flush_timeouts``),
        so callers can tell a drained queue from a stuck worker.
        """
        if self._scheduler is not None:
            return self._scheduler.flush(timeout=timeout)
        return True

    def checkpoint(self, keep_snapshots: int = 2) -> SnapshotInfo:
        """Write an atomic snapshot and truncate the WAL behind it.

        The snapshot captures the full live graph (including online-repair
        edges and tombstones) plus payloads at the current WAL sequence
        number; once committed, the log rotates and segments the snapshot
        covers are pruned, keeping the directory bounded.  Requires a
        ``wal_dir``.
        """
        if self._wal is None:
            raise RuntimeError("checkpoint() requires a store built with wal_dir")
        if self._fixer is None:
            self.build()
        with self._scheduler.write_lock:
            return self._checkpoint_locked(keep_snapshots)

    def _checkpoint_locked(self, keep_snapshots: int) -> SnapshotInfo:
        self._wal.sync()
        seq = self._wal.seq
        info = self._snapshots.write(self._fixer, self._payloads, seq)
        self._wal.rotate()
        self._wal.prune(seq)
        self._snapshots.prune(keep=keep_snapshots)
        self._last_checkpoint_seq = seq
        return info

    def _maybe_checkpoint(self) -> None:
        every = self.config.checkpoint_every
        if (every > 0 and self._fixer is not None
                and self._wal.seq - self._last_checkpoint_seq >= every):
            self.checkpoint()

    def _attach_wal(self, wal: WriteAheadLog,
                    snapshots: SnapshotManager) -> None:
        """Adopt an already-open log (recovery attaches after replay, built)."""
        self._wal = wal
        self._snapshots = snapshots
        self._last_checkpoint_seq = wal.seq
        self._scheduler.wal = wal

    def _adopt_index(self, index) -> None:
        """Install a loaded index (load()/recovery) and the payloads it
        carries as the store's own."""
        self._fixer = NGFixer(index, self.fix_config)
        self._fixer.entry = index.entry
        self._maintainer = IndexMaintainer(
            self._fixer, np.empty((0, index.dc.dim), dtype=np.float32))
        self._payloads = index.payloads
        self._attach_serving()

    @property
    def adc(self) -> ADCComputer | None:
        """The compressed path's ADC computer (None unless ``compressed``)."""
        return self._adc

    def apply_pq(self, pq: ProductQuantizer) -> None:
        """Adopt a pre-trained (shipped) PQ codebook for compressed serving.

        The cluster router trains one quantizer on a data sample and
        broadcasts it so every shard encodes with the *same* codebook —
        ADC scores are then comparable across the whole cluster.  Called
        before :meth:`build`, the codebook is stashed and used when the
        serving stack comes up; on a built store the resident codes are
        re-encoded immediately and the searcher's cached engine is
        invalidated (see :meth:`ServingSearcher.attach_adc
        <repro.serving.ServingSearcher.attach_adc>`).  On a durable store
        the switch to the compressed tier is persisted, so recovery serves
        compressed too.
        """
        if not pq.is_fitted:
            raise ValueError("apply_pq expects a fitted ProductQuantizer")
        if pq.dim != self.dim:
            raise ValueError(
                f"codebook dimension {pq.dim} != store dimension {self.dim}")
        self._shared_pq = pq
        self.config = dataclasses.replace(
            self.config, compressed=True, pq_m=pq.m, pq_ks=pq.ks)
        self._persist_config()
        if self._fixer is None:
            return
        with self._scheduler.write_lock:
            self._adc = ADCComputer(self._fixer.dc, pq)
            self._searcher.attach_adc(self._adc, rerank=self.config.rerank,
                                      beam_width=self.config.beam_width)

    def close(self) -> None:
        """Stop background work and seal the WAL (flushes + fsyncs)."""
        if (self._scheduler is not None
                and self.config.scheduler_mode == "thread"):
            self._scheduler.stop()
        if self._wal is not None:
            self._wal.close()

    @property
    def wal(self) -> WriteAheadLog | None:
        """The write-ahead log (None unless built with ``wal_dir``)."""
        return self._wal

    @property
    def scheduler(self) -> MaintenanceScheduler | None:
        """The serving maintenance scheduler (None before build)."""
        return self._scheduler

    @property
    def epochs(self) -> EpochManager | None:
        """The epoch manager (None before build)."""
        return self._manager

    @property
    def searcher(self) -> ServingSearcher | None:
        """The epoch-pinning searcher (None before build).

        Exposes the raw index protocol (``search`` returning
        :class:`~repro.graphs.search.SearchResult`, ``search_batch``,
        ``dc``) for harnesses that compose the store with
        evaluation or caching layers.
        """
        return self._searcher

    def stats(self) -> dict:
        if self._fixer is None:
            return {"built": False, "pending": sum(v.shape[0] for v in self._pending)}
        out = self._fixer.stats()
        out["built"] = True
        out["payloads"] = len(self._payloads)
        out["serving"] = self._scheduler.stats()
        if self._adc is not None:
            out["compressed"] = {
                "pq_m": self._adc.pq.m,
                "pq_ks": self._adc.pq.ks,
                "rerank": self.config.rerank,
                "code_bytes": self._adc.code_bytes,
                # Aggregatable searcher counters (adc_scored, rerank_ndc,
                # ...) sum cleanly across shards via cluster.merge_stats.
                **self._searcher.stats(),
            }
        else:
            out["searcher"] = self._searcher.stats()
        if self._fixer.dc.is_memmap:
            out["memmap"] = {
                "path": str(self._fixer.dc.memmap_path),
                "vector_bytes": self._fixer.dc.vector_bytes,
            }
        if self._wal is not None:
            out["wal"] = self._wal.stats()
            out["last_checkpoint_seq"] = self._last_checkpoint_seq
        return out

    # -- persistence ----------------------------------------------------------

    def save(self, path: str | pathlib.Path) -> pathlib.Path:
        """Persist graph + payloads as one atomic file (payloads must be
        JSON-serializable)."""
        if self._fixer is None:
            raise RuntimeError("build() before save()")
        return save_index(self._fixer, path, self._payloads)

    @classmethod
    def load(cls, path: str | pathlib.Path, *,
             memmap_dir: str | pathlib.Path | None = None,
             **settings) -> "VectorStore":
        """Reload a saved store for serving and repair — **not insertion**.

        ``settings`` are :class:`~repro.config.StoreConfig` fields other
        than ``dim``/``metric`` (which the file fixes); e.g.
        ``compressed=True`` enables the PQ-resident hot path on the loaded
        store (codes are fitted and encoded at load time).  ``memmap_dir``
        spills the raw vectors next to the snapshot and serves them
        disk-resident (see :func:`repro.io.load_index`); combined with
        ``compressed`` the steady-state footprint is codes + graph, not
        vectors.

        The loaded graph is a :class:`~repro.io.FrozenIndex`: search,
        :meth:`observe`-driven repair, :meth:`delete`, and further
        :meth:`save` calls all work, but :meth:`add` raises
        ``RuntimeError`` because the frozen graph lacks the original
        builder's insert machinery (the artifact records no ``M`` or
        ``ef_construction`` to insert with).  To keep inserting into a
        persisted store, use the durability layer instead: construct with
        ``wal_dir=`` and restart via :func:`repro.durability.recover`,
        which rebuilds an insert-capable index from snapshot + WAL.
        """
        frozen = load_index(path, memmap_dir=memmap_dir)
        store = cls(frozen.dc.dim, frozen.dc.metric, **settings)
        store._adopt_index(frozen)
        return store
