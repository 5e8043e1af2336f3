"""Scatter-gather router: hash-partitioned shards, replica failover, top-k merge.

:class:`ClusterRouter` owns ``n_shards`` partitions x ``n_replicas``
replica processes (forked :mod:`repro.cluster.worker` workers, each with its
own :class:`~repro.store.VectorStore`, WAL directory, and recovery path) and
presents the single-store surface on top:

- **Writes** are hash-partitioned by the router-assigned global id and sent
  to *every* replica of the owning partition.  A replica that died (no ack)
  gets the mutation appended to its catch-up queue; :meth:`respawn` replays
  the queue after the worker recovered from its own WAL — inserts are
  idempotent per gid on the worker side, so at-least-once delivery is safe.
- **Searches** fan one batched RPC out to one replica per partition (round
  robin for read scaling), each carrying a per-shard deadline budget derived
  from the caller's ``deadline_ms`` (see :func:`shard_budget_ms`; the math
  is documented in docs/durability.md).  Replies are gathered through the
  :func:`repro.cluster.resilience.scatter_gather` multiplexed event loop:
  a slow partition never head-of-line-blocks the others, a straggling
  primary is hedged to the partition's next live replica after its
  EWMA-tracked hedge delay, and per-replica circuit breakers route around
  gray (slow-but-alive) replicas until a non-blocking half-open probe
  re-admits them.  A dead replica is retried on the partition's next live
  replica with the *remaining* budget; a partition with no eligible
  replica (or whose budget expires) contributes nothing and the merged
  results come back ``degraded`` — partial answers, never an error,
  mirroring the single-store deadline contract.
- **Merging** is one vectorized pass (:func:`merge_topk_batch`): per-shard
  (B, k) id/distance blocks are concatenated, distance-sorted per row,
  deduplicated by gid (first occurrence wins — replica retries may deliver
  the same partition twice), filtered against the router's tombstone set,
  and truncated to k.

The router also exposes ``dc``/``adc_scored`` NDC accounting shims so
:func:`repro.evalx.runner.evaluate_index` can sweep a cluster exactly like a
single index.
"""

from __future__ import annotations

import multiprocessing as mp
import pathlib
import socket
import tempfile
import threading
import time

import numpy as np

from repro.cluster import resilience
from repro.cluster.protocol import recv_msg, send_msg
from repro.cluster.resilience import (RPC_TIMEOUT, BreakerConfig,
                                      CircuitBreaker, LatencyTracker,
                                      scatter_gather)
from repro.cluster.stats import merge_stats
from repro.cluster.worker import shard_wal_dir, worker_main
from repro.config import StoreConfig
from repro.distances import Metric
from repro.graphs.search import SearchResult
from repro.obs import OBS, SECONDS_BUCKETS
from repro.quantization.pq import ProductQuantizer
from repro.utils.validation import check_positive

_SEARCHES = OBS.counter(
    "cluster_searches", "search requests routed through the cluster")
_RPCS = OBS.counter(
    "cluster_shard_rpcs", "shard RPCs issued by the router")
_FAILURES = OBS.counter(
    "cluster_shard_failures", "shard RPCs that found the replica dead")
_RETRIES = OBS.counter(
    "cluster_replica_retries", "searches retried on another replica")
_DEGRADED = OBS.counter(
    "cluster_degraded_searches",
    "cluster searches answered partially (deadline or partition outage)")
_MERGE_SECONDS = OBS.histogram(
    "cluster_merge_seconds", "vectorized top-k merge latency per batch",
    buckets=SECONDS_BUCKETS)
_RESPAWNS = OBS.counter(
    "cluster_respawns", "shard workers respawned through WAL recovery")
_CATCHUP = OBS.counter(
    "cluster_catchup_replayed", "buffered mutations replayed at respawn")
_CATCHUP_OVERFLOWS = OBS.counter(
    "cluster_catchup_overflows",
    "catch-up buffers that overflowed (full resync required at respawn)")
_RESYNCS = OBS.counter(
    "cluster_resyncs", "replicas resynchronized from a live peer")

#: Fraction of the remaining deadline reserved for scatter/merge overhead;
#: the rest is handed to the shard as its own search budget.
MERGE_RESERVE = 0.15


class ClusterError(RuntimeError):
    """A cluster operation failed in a way failover cannot mask."""


def shard_budget_ms(remaining_ms: float,
                    merge_reserve: float = MERGE_RESERVE) -> float:
    """Per-shard deadline budget from the caller's remaining budget.

    ``budget = remaining * (1 - merge_reserve)``: the reserve pays for
    serialization, the scatter/gather hop, and the router-side merge, so a
    shard that spends its whole budget still leaves the router inside the
    caller's deadline.  Retries recompute from the *remaining* budget, so a
    failover attempt never extends the caller's wait.
    """
    return max(0.1, remaining_ms * (1.0 - merge_reserve))


def hash_partition(gids: np.ndarray, n_shards: int) -> np.ndarray:
    """Partition assignment by global id (deterministic, stateless).

    Sequential router-assigned gids round-robin across shards, which keeps
    partitions balanced to within one row; any integer mix could be dropped
    in here without touching the protocol or the workers.
    """
    return np.asarray(gids, dtype=np.int64) % n_shards


def merge_topk_batch(ids_blocks: list[np.ndarray],
                     dists_blocks: list[np.ndarray], k: int,
                     excluded: np.ndarray | None = None,
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized scatter-gather merge of per-shard top-k blocks.

    ``ids_blocks[s]``/``dists_blocks[s]`` are one shard's (B, k_s) results
    (gid ``-1`` padding = miss, distance ``inf``).  Returns (B, k) merged
    ids/distances, ascending per row, with duplicate gids deduplicated to
    their best distance and ``excluded`` gids (router tombstones) dropped.
    One sort + one unique over the whole batch — no per-query python loop.
    """
    ids = np.concatenate(ids_blocks, axis=1).astype(np.int64, copy=True)
    dists = np.concatenate(dists_blocks, axis=1).astype(np.float64, copy=True)
    if excluded is not None and excluded.size and ids.size:
        dead = np.isin(ids, excluded)
        ids[dead] = -1
    dists[ids < 0] = np.inf
    n_rows, width = ids.shape
    order = np.argsort(dists, axis=1, kind="stable")
    ids_sorted = np.take_along_axis(ids, order, axis=1)
    dists_sorted = np.take_along_axis(dists, order, axis=1)
    out_ids = np.full((n_rows, k), -1, dtype=np.int64)
    out_dists = np.full((n_rows, k), np.inf, dtype=np.float64)
    if not ids.size:
        return out_ids, out_dists
    # Dedupe per row keeping the first (= best-distance) occurrence: row-keyed
    # gids flatten row-major, and np.unique's return_index points at each
    # key's first flat position — which, within a row, is its best distance.
    stride = int(ids_sorted.max()) + 2
    keys = (np.arange(n_rows, dtype=np.int64)[:, None] * stride
            + ids_sorted + 1)
    first = np.zeros(n_rows * width, dtype=bool)
    first[np.unique(keys.ravel(), return_index=True)[1]] = True
    keep = first.reshape(n_rows, width) & (ids_sorted >= 0)
    rank = np.cumsum(keep, axis=1)
    take = keep & (rank <= k)
    rows, cols = np.nonzero(take)
    pos = rank[rows, cols] - 1
    out_ids[rows, pos] = ids_sorted[rows, cols]
    out_dists[rows, pos] = dists_sorted[rows, cols]
    return out_ids, out_dists


class _NDCShim:
    """Index-protocol ``dc`` stand-in aggregating shard-reported NDC."""

    def __init__(self):
        self.ndc = 0
        self.size = 0

    def reset_ndc(self) -> int:
        previous = self.ndc
        self.ndc = 0
        return previous


class ShardHandle:
    """One replica process + its socket, liveness, breaker, and catch-up queue.

    ``owes`` counts reply frames the router abandoned on this socket (hedge
    losses, expired deadline waits, timed-out probes); they are drained via
    :func:`repro.cluster.resilience.drain_stale` before the socket carries a
    new RPC, so a stale answer is never mistaken for a fresh one.  The
    catch-up queue is bounded by ``max_pending``: overflowing flips
    ``catchup_overflow`` and drops the buffer — the replica then requires a
    full WAL recovery *plus* an anti-entropy resync from a live peer at
    :meth:`ClusterRouter.respawn` instead of silently growing router memory.
    """

    def __init__(self, shard_id: int, replica_id: int, spec: dict,
                 rpc_timeout: float, max_pending: int = 1024,
                 breaker: CircuitBreaker | None = None,
                 latency: LatencyTracker | None = None):
        self.shard_id = shard_id
        self.replica_id = replica_id
        self.spec = dict(spec)
        self.rpc_timeout = rpc_timeout
        self.max_pending = max(int(max_pending), 1)
        self.alive = False
        self.sock: socket.socket | None = None
        self.process = None
        self.pending: list[dict] = []  # mutations missed while dead
        self.catchup_overflow = False
        self.hello: dict = {}
        self.owes = 0  # abandoned reply frames not yet drained
        self.breaker = breaker or CircuitBreaker(
            seed=shard_id * 8191 + replica_id)
        self.latency = latency or LatencyTracker()

    def spawn(self, recover: bool = False) -> dict:
        """Fork the worker (fresh or in WAL-recovery mode); returns its hello."""
        spec = dict(self.spec)
        spec["recover"] = recover
        parent_sock, child_sock = socket.socketpair()
        ctx = mp.get_context("fork")
        self.process = ctx.Process(
            target=worker_main, args=(child_sock, parent_sock, spec),
            name=f"repro-shard-{self.shard_id}.{self.replica_id}",
            daemon=True)
        self.process.start()
        child_sock.close()
        parent_sock.settimeout(self.rpc_timeout)
        self.sock = parent_sock
        hello = recv_msg(parent_sock)
        if "err" in hello:
            self.mark_dead()
            raise ClusterError(
                f"shard {self.shard_id}.{self.replica_id} failed to start: "
                f"{hello['err']}\n{hello.get('trace', '')}")
        self.alive = True
        self.owes = 0
        self.breaker.reset()
        self.hello = hello
        return hello

    def buffer_catchup(self, msg: dict) -> None:
        """Queue a missed mutation, or overflow into resync-required mode."""
        if self.catchup_overflow:
            return
        if len(self.pending) >= self.max_pending:
            self.pending.clear()
            self.catchup_overflow = True
            _CATCHUP_OVERFLOWS.inc()
            return
        self.pending.append(msg)

    def rpc(self, msg: dict) -> dict:
        """One request/reply round trip; ConnectionError marks the replica dead."""
        if not self.alive or self.sock is None:
            raise ConnectionError(
                f"shard {self.shard_id}.{self.replica_id} is down")
        if self.owes and not resilience.drain_stale(self, self.rpc_timeout):
            # Still owing after a full timeout: the stream cannot be
            # trusted for request/reply pairing any more.
            self.mark_dead()
            _FAILURES.inc()
            raise ConnectionError(
                f"shard {self.shard_id}.{self.replica_id} could not drain "
                "stale replies")
        _RPCS.inc()
        try:
            self.sock.settimeout(self.rpc_timeout)
            send_msg(self.sock, msg)
            return recv_msg(self.sock)
        except (ConnectionError, OSError) as exc:
            self.mark_dead()
            _FAILURES.inc()
            if isinstance(exc, ConnectionError):
                raise
            raise ConnectionError(str(exc)) from exc

    def mark_dead(self) -> None:
        self.alive = False
        self.owes = 0
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:
                pass
            self.sock = None

    def close(self, graceful: bool = True) -> None:
        if self.alive and graceful:
            try:
                self.rpc({"op": "shutdown"})
            except (ConnectionError, Exception):
                pass
        self.mark_dead()
        if self.process is not None:
            self.process.join(timeout=5.0)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=5.0)
            self.process = None


class ClusterRouter:
    """Partitioned, replicated serving facade over shard worker processes.

    Parameters
    ----------
    dim, metric, **settings:
        The shard stores' settings: every
        :class:`~repro.config.StoreConfig` field (see there), validated
        once into :attr:`config`.  A worker's spec is its ``to_dict()``
        plus the shard's ids, WAL directory and seed (``seed + shard``).
        With ``compressed`` the router trains **one** codebook on a sample
        at :meth:`load` time and broadcasts it, so every shard's codes are
        mutually comparable.
    n_shards, n_replicas:
        Partition count and replicas per partition (replicas serve reads
        round-robin and mask single-replica death).
    base_dir:
        Durability root: replica ``(s, r)`` journals to
        ``base_dir/shard-00s/replica-r``.  ``None`` = a temp directory
        (still per-replica WALs, so chaos tests always have a recovery
        path).
    hedge, hedge_ms:
        Hedged reads: when a partition's primary reply outlasts the
        replica's EWMA-tracked hedge delay (or the fixed ``hedge_ms``
        override), the block is re-issued to the partition's next eligible
        replica and the first reply wins.  Never fires when the partition
        has a single live replica; ``hedge=False`` restores strictly
        sequential replica use (the unhedged benchmark baseline).
    breaker_config:
        Per-replica :class:`~repro.cluster.resilience.BreakerConfig`
        (instance or dict; ``{"enabled": False}`` disables breakers).
        Each replica gets its own breaker with a deterministic distinct
        jitter seed.
    max_pending:
        Bound on each replica's catch-up mutation buffer; overflow forces
        a peer resync at :meth:`respawn` instead of unbounded growth.
    """

    def __init__(self, dim: int, metric: Metric | str = StoreConfig.metric,
                 n_shards: int = 4, n_replicas: int = 1,
                 base_dir: str | pathlib.Path | None = None, *,
                 hedge: bool = True, hedge_ms: float | None = None,
                 breaker_config=None, max_pending: int = 1024, **settings):
        check_positive(n_shards, "n_shards")
        check_positive(n_replicas, "n_replicas")
        # Validate here, once, not as a worker startup error per replica.
        # Specs carry the config's plain-dict form across the process
        # boundary, so every shard runs the same settings.
        self.config = StoreConfig(dim=dim, metric=metric, **settings)
        self.dim = dim
        self.metric = self.config.metric
        self.n_shards = n_shards
        self.n_replicas = n_replicas
        if base_dir is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-cluster-")
            base_dir = self._tmp.name
        else:
            self._tmp = None
        self.base_dir = pathlib.Path(base_dir)
        self._pq: ProductQuantizer | None = None
        self.dc = _NDCShim()
        self.adc_scored = 0
        self._next_gid = 0
        self._deleted: set[int] = set()
        self._deleted_arr = np.empty(0, dtype=np.int64)
        self._rr = 0  # round-robin replica cursor
        self.hedge_enabled = bool(hedge)
        self.hedge_ms = hedge_ms
        self.breaker_config = BreakerConfig.coerce(breaker_config)
        self.max_pending = max_pending
        self.n_failures = 0
        self.n_retries = 0
        self.n_degraded = 0
        self.n_searches = 0
        self.n_respawns = 0
        self.n_hedges = 0
        self.n_hedge_wins = 0
        self.n_resyncs = 0
        # Frames from concurrent calls must not interleave on the shared
        # shard sockets; every RPC round (scatter+gather, mutation fan-out,
        # stats sweep) runs under this lock.  The front door's executor
        # threads therefore serialize here — the coalescing win comes from
        # bigger blocks per round trip, not socket-level concurrency.
        self._io_lock = threading.RLock()
        self.handles: list[list[ShardHandle]] = []
        shipped, seed = self.config.to_dict(), self.config.seed
        for s in range(n_shards):
            replicas = []
            for r in range(n_replicas):
                spec = dict(
                    shipped, seed=seed + s, shard_id=s, replica_id=r,
                    wal_dir=str(shard_wal_dir(self.base_dir, s, r)))
                breaker = CircuitBreaker(self.breaker_config,
                                         seed=seed * 31 + s * n_replicas + r)
                replicas.append(ShardHandle(s, r, spec, RPC_TIMEOUT,
                                            max_pending=max_pending,
                                            breaker=breaker))
            self.handles.append(replicas)
        for replicas in self.handles:
            for handle in replicas:
                handle.spawn()
        OBS.gauge_fn("cluster_live_replicas",
                     lambda: sum(h.alive for row in self.handles
                                 for h in row),
                     "shard replica processes currently serving")
        OBS.gauge_fn("cluster_breaker_state",
                     lambda: sum(h.breaker.state_code()
                                 for row in self.handles for h in row),
                     "summed replica breaker codes "
                     "(0 closed, 1 half-open, 2 open)")
        OBS.gauge_fn("cluster_catchup_depth",
                     lambda: max((len(h.pending) for row in self.handles
                                  for h in row), default=0),
                     "deepest per-replica catch-up mutation buffer")

    # -- context management --------------------------------------------------

    def __enter__(self) -> "ClusterRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Shut every worker down gracefully and reap the processes."""
        with self._io_lock:
            for replicas in self.handles:
                for handle in replicas:
                    handle.close()
            if self._tmp is not None:
                self._tmp.cleanup()
                self._tmp = None

    # -- PQ code shipping ----------------------------------------------------

    def train_pq(self, sample: np.ndarray) -> str:
        """Train one codebook on ``sample`` and broadcast it to every shard.

        Returns the codebook signature every shard now shares; shards built
        afterwards (or respawned) receive the same codebook, so ADC scores
        are comparable across the whole cluster.
        """
        from repro.cluster.worker import pq_signature
        from repro.quantization.adc import ADCComputer
        sample = np.ascontiguousarray(np.asarray(sample, dtype=np.float32))
        if self.metric is Metric.COSINE:
            norms = np.linalg.norm(sample, axis=1, keepdims=True)
            sample = sample / np.maximum(norms, 1e-12)
        pq = ProductQuantizer(
            m=self.config.pq_m or ADCComputer._default_m(self.dim),
            ks=self.config.pq_ks, metric=self.metric, seed=self.config.seed)
        pq.fit(sample)
        self._pq = pq
        sig = pq_signature(pq)
        self._broadcast_pq()
        return sig

    def _broadcast_pq(self) -> None:
        if self._pq is None:
            return
        msg = {"op": "set_pq", "codebooks": self._pq.codebooks}
        with self._io_lock:
            for replicas in self.handles:
                for handle in replicas:
                    if handle.alive:
                        try:
                            self._check(handle.rpc(msg))
                        except ConnectionError:
                            self._note_failure()

    # -- writes --------------------------------------------------------------

    @staticmethod
    def _check(reply: dict) -> dict:
        if "err" in reply:
            raise ClusterError(reply["err"] + "\n" + reply.get("trace", ""))
        return reply

    def _note_failure(self) -> None:
        self.n_failures += 1

    def _mutate_partition(self, shard_id: int, msg: dict) -> None:
        """Apply one mutation on every replica of a partition.

        Dead (or dying) replicas get the message buffered for catch-up
        replay at :meth:`respawn`; at least one replica must ack, otherwise
        the partition is fully down and the mutation cannot be acknowledged.
        """
        acked = 0
        with self._io_lock:
            for handle in self.handles[shard_id]:
                if not handle.alive:
                    handle.buffer_catchup(msg)
                    continue
                try:
                    self._check(handle.rpc(msg))
                    acked += 1
                except ConnectionError:
                    self._note_failure()
                    handle.buffer_catchup(msg)
        if not acked:
            raise ClusterError(
                f"partition {shard_id} has no live replica; mutation "
                "buffered for catch-up but cannot be acknowledged")

    def add(self, vectors: np.ndarray, payloads=None) -> list[int]:
        """Hash-partitioned insert; returns the assigned global ids."""
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float32))
        if vectors.shape[1] != self.dim:
            raise ValueError(
                f"expected dimension {self.dim}, got {vectors.shape[1]}")
        gids = np.arange(self._next_gid, self._next_gid + vectors.shape[0],
                         dtype=np.int64)
        self._next_gid += vectors.shape[0]
        parts = hash_partition(gids, self.n_shards)
        for s in range(self.n_shards):
            mask = parts == s
            if not mask.any():
                continue
            msg = {"op": "add", "vectors": vectors[mask], "gids": gids[mask]}
            if payloads is not None:
                msg["payloads"] = [payloads[i]
                                   for i in np.nonzero(mask)[0].tolist()]
            self._mutate_partition(s, msg)
        self.dc.size += vectors.shape[0]
        return gids.tolist()

    def load(self, vectors: np.ndarray, payloads=None,
             train_queries: np.ndarray | None = None) -> list[int]:
        """Bulk ingest + per-shard build (+ optional NGFix history fit).

        With ``compressed=True`` and no codebook trained yet, a sample of
        the load is used to train the shared codebook first, so every
        shard encodes with the same quantizer.
        """
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float32))
        if self.config.compressed and self._pq is None:
            rng = np.random.default_rng(self.config.seed)
            n = min(vectors.shape[0], max(4 * self.config.pq_ks, 1024))
            self.train_pq(vectors[rng.choice(vectors.shape[0], size=n,
                                             replace=False)])
        gids = np.arange(self._next_gid, self._next_gid + vectors.shape[0],
                         dtype=np.int64)
        self._next_gid += vectors.shape[0]
        parts = hash_partition(gids, self.n_shards)
        for s in range(self.n_shards):
            mask = parts == s
            msg = {"op": "load", "vectors": vectors[mask],
                   "gids": gids[mask]}
            if payloads is not None:
                msg["payloads"] = [payloads[i]
                                   for i in np.nonzero(mask)[0].tolist()]
            if train_queries is not None:
                msg["train"] = np.asarray(train_queries, dtype=np.float32)
            self._mutate_partition(s, msg)
        self.dc.size += vectors.shape[0]
        return gids.tolist()

    def delete(self, gids) -> None:
        """Delete by global id on the owning partitions (all replicas)."""
        gids = np.atleast_1d(np.asarray(gids, dtype=np.int64))
        parts = hash_partition(gids, self.n_shards)
        for s in range(self.n_shards):
            mask = parts == s
            if mask.any():
                self._mutate_partition(s, {"op": "delete",
                                           "gids": gids[mask]})
        self._deleted.update(int(g) for g in gids.tolist())
        self._deleted_arr = np.fromiter(self._deleted, dtype=np.int64,
                                        count=len(self._deleted))
        self.dc.size -= int(mask.shape[0] and gids.shape[0])
        self.dc.size = max(self.dc.size, 0)

    def observe(self, query: np.ndarray) -> bool:
        """Feed one query to every shard's online repair (best effort)."""
        accepted = False
        msg = {"op": "observe", "q": np.asarray(query, dtype=np.float32)}
        with self._io_lock:
            for replicas in self.handles:
                for handle in replicas:
                    if not handle.alive:
                        continue
                    try:
                        reply = self._check(handle.rpc(msg))
                        accepted = accepted or bool(reply.get("accepted"))
                    except ConnectionError:
                        self._note_failure()
        return accepted

    # -- reads ---------------------------------------------------------------

    def _pick_replica(self, shard_id: int,
                      skip: set[int]) -> ShardHandle | None:
        """Breaker-aware read pick: route around OPEN replicas, run probes.

        Probing is fully asynchronous so it never adds latency to the
        query path: an OPEN replica whose backoff elapsed gets a ``ping``
        *sent* (and is still skipped this round); a HALF_OPEN replica's
        probe reply is checked with a zero-timeout readability test —
        arrived and clean → breaker closes and the replica is eligible
        again, straggling past ``probe_timeout_s`` → reopen with a longer
        backoff.  Handles still owing stale frames get a tiny drain
        budget; ones that cannot catch up are skipped, not waited on.

        **Fail open.**  Breakers only ever choose *between* replicas: when
        no replica left to try is admitted, the least latency-inflated of
        the barred ones serves the read — a slow answer with full recall
        beats a ``degraded`` one with the partition missing.
        """
        replicas = self.handles[shard_id]
        barred: list[ShardHandle] = []
        for i in range(self.n_replicas):
            handle = replicas[(self._rr + i) % self.n_replicas]
            if not handle.alive or handle.replica_id in skip:
                continue
            breaker = handle.breaker
            if breaker.state == resilience.HALF_OPEN:
                self._check_probe(handle)
            if breaker.state == resilience.OPEN and breaker.probe_due():
                self._send_probe(handle)
            if not handle.alive:
                continue
            if not breaker.allows():
                barred.append(handle)
                continue
            if self._caught_up(handle):
                return handle
        barred.sort(key=lambda h: h.latency.inflation(
            h.breaker.config.inflation_min_samples))
        for handle in barred:
            if self._caught_up(handle):
                return handle
        return None

    def _caught_up(self, handle: ShardHandle) -> bool:
        """Whether ``handle``'s socket is free of owed frames (after a tiny
        drain budget); a busy replica is skipped, not waited on."""
        if handle.owes and not resilience.drain_stale(handle, 0.02):
            if not handle.alive:  # died draining
                self._note_failure()
            return False
        return True

    def _send_probe(self, handle: ShardHandle) -> None:
        """Fire-and-forget half-open probe; the reply is checked later."""
        try:
            send_msg(handle.sock, {"op": "ping"})
        except (ConnectionError, OSError):
            handle.mark_dead()
            _FAILURES.inc()
            self._note_failure()
            return
        handle.owes += 1
        handle.breaker.begin_probe()

    def _check_probe(self, handle: ShardHandle) -> None:
        """Non-blocking probe-reply check for a HALF_OPEN replica.

        All frames owed before the probe arrive first (the socket is
        FIFO), so the replica has answered the probe exactly when the
        owed count drains to zero.
        """
        breaker = handle.breaker
        while handle.owes and resilience.readable(handle.sock, 0.0):
            try:
                handle.sock.settimeout(
                    max(breaker.config.probe_timeout_s, 0.05))
                recv_msg(handle.sock)
            except (ConnectionError, OSError):
                handle.mark_dead()
                _FAILURES.inc()
                self._note_failure()
                breaker.probe_failed()
                return
            handle.owes -= 1
        if handle.owes == 0:
            breaker.close()
            handle.latency.reset_window()
        elif breaker.probe_expired():
            breaker.probe_failed()

    # -- scatter_gather callbacks (see repro.cluster.resilience) -------------

    def _hedge_delay(self, handle: ShardHandle) -> float:
        if self.hedge_ms is not None:
            return self.hedge_ms / 1000.0
        return handle.latency.hedge_delay()

    def _has_hedge_target(self, shard_id: int, skip: set[int]) -> bool:
        return any(h.alive and h.replica_id not in skip
                   and h.breaker.allows()
                   for h in self.handles[shard_id])

    def _on_send(self, handle: ShardHandle) -> None:
        _RPCS.inc()

    def _on_success(self, handle: ShardHandle, latency_s: float) -> None:
        handle.latency.record(latency_s)
        handle.breaker.record_success(handle.latency)

    def _on_conn_error(self, handle: ShardHandle) -> None:
        handle.mark_dead()
        _FAILURES.inc()
        self._note_failure()

    def _on_timeout(self, handle: ShardHandle) -> None:
        # The reply may still arrive; the frame stays owed and is drained
        # before the handle's next use.  The breaker counts the timeout.
        handle.breaker.record_failure("timeout")

    def _on_outpaced(self, handle: ShardHandle) -> None:
        handle.breaker.record_failure("outpaced")

    def _note_retry(self) -> None:
        self.n_retries += 1
        _RETRIES.inc()

    def search(self, query: np.ndarray, k: int = 10, ef: int | None = None,
               deadline_ms: float | None = None) -> SearchResult:
        """Single-query scatter-gather search (returns merged gids)."""
        result = self.search_batch(
            np.atleast_2d(np.asarray(query, dtype=np.float32)), k, ef,
            deadline_ms=deadline_ms)[0]
        return result

    def search_batch(self, queries: np.ndarray, k: int = 10,
                     ef: int | None = None, batch_size: int = 256,
                     deadline_ms: float | None = None) -> list[SearchResult]:
        """Batched scatter-gather: one RPC per partition, vectorized merge.

        Every result's ids are global; a query is flagged ``degraded`` when
        any contributing shard degraded under its budget or a partition had
        no live replica at all (partial results, never an exception).
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        n = queries.shape[0]
        start = time.perf_counter()
        deadline = (None if deadline_ms is None
                    else start + deadline_ms / 1000.0)
        self._rr += 1
        self.n_searches += n
        _SEARCHES.inc(n)

        def build_msg() -> dict:
            msg = {"op": "search", "q": queries, "k": int(k),
                   "batch_size": int(batch_size)}
            if ef is not None:
                msg["ef"] = int(ef)
            if deadline is not None:
                remaining = (deadline - time.perf_counter()) * 1000.0
                msg["deadline_ms"] = shard_budget_ms(max(remaining, 0.1))
            return msg

        # Scatter one block per partition, then gather every partition's
        # reply through the multiplexed selector loop (hedges, breakers,
        # budget-bounded waits — see repro.cluster.resilience).  The lock
        # keeps concurrent callers (front-door executor threads) from
        # interleaving frames on the shared sockets.
        with self._io_lock:
            replies = scatter_gather(self, build_msg, deadline)

        ids_blocks, dists_blocks = [], []
        shard_degraded = np.zeros(n, dtype=bool)
        for s, reply in replies.items():
            ids_blocks.append(np.asarray(reply["ids"], dtype=np.int64))
            dists_blocks.append(np.asarray(reply["dists"], dtype=np.float64))
            shard_degraded |= np.asarray(reply["degraded"], dtype=bool)
            self.dc.ndc += int(reply.get("ndc", 0))
            self.adc_scored += int(reply.get("adc", 0))
        outage = len(replies) < self.n_shards

        t_merge = time.perf_counter()
        if ids_blocks:
            merged_ids, merged_d = merge_topk_batch(
                ids_blocks, dists_blocks, k, excluded=self._deleted_arr)
        else:
            merged_ids = np.full((n, k), -1, dtype=np.int64)
            merged_d = np.full((n, k), np.inf, dtype=np.float64)
        if OBS.enabled:
            _MERGE_SECONDS.observe(time.perf_counter() - t_merge)

        results = []
        for i in range(n):
            valid = merged_ids[i] >= 0
            degraded = bool(shard_degraded[i]) or outage
            results.append(SearchResult(ids=merged_ids[i][valid],
                                        distances=merged_d[i][valid],
                                        degraded=degraded))
            if degraded:
                self.n_degraded += 1
                _DEGRADED.inc()
        return results

    # -- failure handling ----------------------------------------------------

    def respawn(self, shard_id: int, replica_id: int = 0) -> dict:
        """Restart a dead replica through its own WAL recovery.

        The worker replays snapshot + WAL tail in its own process, reports
        a :class:`~repro.durability.RecoveryReport`, re-adopts the shared
        PQ codebook, and then the router replays every mutation the replica
        missed while dead (idempotent per gid).  Returns the recovery
        report dict (``consistent`` asserts gap-free sequences).
        """
        with self._io_lock:
            handle = self.handles[shard_id][replica_id]
            overflowed = handle.catchup_overflow
            handle.close(graceful=False)
            handle.spawn(recover=True)
            self.n_respawns += 1
            _RESPAWNS.inc()
            report = self._check(
                handle.rpc({"op": "recovery_report"})).get("report")
            if self._pq is not None:
                self._check(handle.rpc({"op": "set_pq",
                                        "codebooks": self._pq.codebooks}))
            pending, handle.pending = handle.pending, []
            for msg in pending:
                self._check(handle.rpc(msg))
            if pending:
                _CATCHUP.inc(len(pending))
            if overflowed:
                # The buffer was dropped at overflow, so WAL recovery alone
                # leaves this replica missing every mutation since; diff
                # its row set against a live peer and repair.
                self._resync_from_peer(handle)
                handle.catchup_overflow = False
            return report

    def _resync_from_peer(self, handle: ShardHandle,
                          chunk: int = 512) -> None:
        """Anti-entropy repair: converge ``handle`` on a live peer's rows.

        Diffs the two replicas' gid sets (``gid_list``), deletes rows the
        peer no longer has, and re-ships missing rows (vectors + payloads
        via ``export_rows``) in chunks.  Worker-side adds are idempotent
        per gid, so a crash mid-resync just means the next resync re-sends
        less.  Raises :class:`ClusterError` when the partition has no live
        peer to copy from — the data for the dropped mutations exists
        nowhere the router can reach.
        """
        peer = next((h for h in self.handles[handle.shard_id]
                     if h is not handle and h.alive), None)
        if peer is None:
            raise ClusterError(
                f"partition {handle.shard_id}: catch-up buffer overflowed "
                "and no live peer remains to resync from")
        have = np.asarray(
            self._check(handle.rpc({"op": "gid_list"}))["gids"],
            dtype=np.int64)
        want = np.asarray(
            self._check(peer.rpc({"op": "gid_list"}))["gids"],
            dtype=np.int64)
        extra = np.setdiff1d(have, want)
        missing = np.setdiff1d(want, have)
        if extra.size:
            self._check(handle.rpc({"op": "delete", "gids": extra}))
        for i in range(0, missing.size, chunk):
            gids = missing[i:i + chunk]
            rows = self._check(peer.rpc({"op": "export_rows",
                                         "gids": gids}))
            msg = {"op": "add",
                   "vectors": np.asarray(rows["vectors"], dtype=np.float32),
                   "gids": gids}
            if any(p is not None for p in rows.get("payloads", [])):
                msg["payloads"] = rows["payloads"]
            self._check(handle.rpc(msg))
        self.n_resyncs += 1
        _RESYNCS.inc()

    def live_replicas(self) -> int:
        return sum(h.alive for row in self.handles for h in row)

    # -- stats ---------------------------------------------------------------

    def router_stats(self) -> dict:
        handles = [h for row in self.handles for h in row]
        return {
            "n_shards": self.n_shards,
            "n_replicas": self.n_replicas,
            "live_replicas": self.live_replicas(),
            "searches": self.n_searches,
            "failures": self.n_failures,
            "retries": self.n_retries,
            "degraded": self.n_degraded,
            "respawns": self.n_respawns,
            "hedges": self.n_hedges,
            "hedge_wins": self.n_hedge_wins,
            "resyncs": self.n_resyncs,
            "breaker_trips": sum(h.breaker.n_trips for h in handles),
            "breaker_readmits": sum(h.breaker.n_readmits for h in handles),
            "breakers_open": sum(h.breaker.state != resilience.CLOSED
                                 for h in handles),
            "catchup_depth": max((len(h.pending) for h in handles),
                                 default=0),
            "catchup_overflows": sum(h.catchup_overflow for h in handles),
            "deleted_gids": len(self._deleted),
            "next_gid": self._next_gid,
            "pq_shared": self._pq is not None,
        }

    def stats(self) -> dict:
        """Per-replica stats plus the collision-free merged rollup."""
        shard_stats = []
        with self._io_lock:
            for replicas in self.handles:
                for handle in replicas:
                    if not handle.alive:
                        shard_stats.append({"shard_id": handle.shard_id,
                                            "replica_id": handle.replica_id,
                                            "alive": False})
                        continue
                    try:
                        stats = self._check(
                            handle.rpc({"op": "stats"}))["stats"]
                        stats["alive"] = True
                        shard_stats.append(stats)
                    except ConnectionError:
                        self._note_failure()
                        shard_stats.append({"shard_id": handle.shard_id,
                                            "replica_id": handle.replica_id,
                                            "alive": False})
        return {
            "router": self.router_stats(),
            "shards": shard_stats,
            "merged": merge_stats(shard_stats),
        }
