"""Shard worker: one process owning one partition's :class:`VectorStore`.

A worker is forked by the router with one end of a ``socketpair`` and a
*spec* describing its partition: shard/replica ids, an optional WAL
directory (each shard journals to — and recovers from — its own directory)
and the store's settings as :meth:`StoreConfig.to_dict
<repro.config.StoreConfig.to_dict>` keys.  It then serves a
request/reply loop over the length-prefixed frames of
:mod:`repro.cluster.protocol`.

Id translation lives here, not in the router: every insert arrives with the
*global* ids the router assigned, the worker stores each gid as the row's
WAL-journaled payload, and search replies already carry gids — so the
router needs no id map at all, and a recovered worker rebuilds its own
``gid -> local`` map from the payloads the snapshot + WAL replay restored.
Inserts are idempotent per gid (an already-present gid is skipped), which
makes the router's catch-up replay after a crash safe under at-least-once
delivery.

Fault injection: every request dispatch fires the ``cluster.worker_op``
point, so a chaos plan armed via the ``arm_faults`` op can kill the process
(``os._exit(137)``) on the Nth operation — *before* the op applies,
matching the acked-write contract (no ack ⇒ not applied ⇒ safe to replay).
The ``worker.pre_reply`` point fires after the op applied but *before* the
reply frame is written: a ``delay`` rule there makes the worker
slow-but-alive — deterministic gray failure on demand for the hedging and
circuit-breaker chaos suites.
"""

from __future__ import annotations

import pathlib
import traceback

import numpy as np

from repro.cluster.protocol import recv_msg, send_msg
from repro.config import StoreConfig
from repro.faults import FAULTS, FaultPlan
from repro.quantization.pq import ProductQuantizer

#: Fault-injection point fired at the top of every worker request dispatch.
WORKER_OP_POINT = "cluster.worker_op"

#: Fault-injection point fired just before the worker sends each reply —
#: a ``delay`` rule here simulates a gray (slow-but-alive) replica.
WORKER_PRE_REPLY_POINT = "worker.pre_reply"


def pq_signature(pq: ProductQuantizer) -> str:
    """Stable fingerprint of a fitted quantizer's codebooks (hex crc32)."""
    import zlib
    if pq is None or not pq.is_fitted:
        return ""
    return f"{zlib.crc32(np.ascontiguousarray(pq.codebooks).tobytes()):08x}"


def _jsonable(value):
    """Coerce stats payloads to JSON-serializable plain python."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


class _ShardServer:
    """The in-process state behind one worker's request loop."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.shard_id = int(spec["shard_id"])
        self.replica_id = int(spec.get("replica_id", 0))
        self.store = None
        self.recovery_report: dict | None = None
        self.shared_pq: ProductQuantizer | None = None
        # local id -> gid (append-only; grows with inserts)
        self._gids = np.empty(0, dtype=np.int64)
        self._local_of_gid: dict[int, int] = {}
        if spec.get("recover"):
            self._recover()
        else:
            self._fresh_store()

    # -- store lifecycle ----------------------------------------------------

    def _fresh_store(self) -> None:
        from repro.store import VectorStore
        self.store = VectorStore(wal_dir=self.spec.get("wal_dir"),
                                 **vars(StoreConfig.from_dict(self.spec)))

    def _recover(self) -> None:
        from repro.durability import recover
        wal_dir = self.spec.get("wal_dir")
        if not wal_dir:
            raise RuntimeError("recover=True requires a wal_dir in the spec")
        store, report = recover(wal_dir)
        self.store = store
        self.recovery_report = report.to_dict()
        self._rebuild_gid_maps()

    def _rebuild_gid_maps(self) -> None:
        """Reconstruct gid translation from the journaled payloads."""
        size = self.store.dc.size if self.store.dc is not None else 0
        self._gids = np.full(max(size, 0), -1, dtype=np.int64)
        self._local_of_gid = {}
        for local, payload in self.store._payloads.items():
            gid = payload.get("g") if isinstance(payload, dict) else None
            if gid is None:
                continue
            gid = int(gid)
            if local >= self._gids.shape[0]:
                grown = np.full(local + 1, -1, dtype=np.int64)
                grown[: self._gids.shape[0]] = self._gids
                self._gids = grown
            self._gids[local] = gid
            self._local_of_gid[gid] = int(local)

    def _note_ids(self, locals_: list[int], gids: np.ndarray) -> None:
        top = max(locals_) + 1 if locals_ else 0
        if top > self._gids.shape[0]:
            grown = np.full(top, -1, dtype=np.int64)
            grown[: self._gids.shape[0]] = self._gids
            self._gids = grown
        for local, gid in zip(locals_, gids):
            self._gids[local] = int(gid)
            self._local_of_gid[int(gid)] = int(local)

    # -- operations ---------------------------------------------------------

    def op_ping(self, msg: dict) -> dict:
        return {"ok": True, "shard": self.shard_id,
                "replica": self.replica_id,
                "built": bool(self.store is not None and self.store.is_built)}

    def op_health(self, msg: dict) -> dict:
        """Cheap liveness/readiness answer (the breaker probe target)."""
        return {"ok": True, "shard": self.shard_id,
                "replica": self.replica_id,
                "n_gids": len(self._local_of_gid),
                "built": bool(self.store is not None and self.store.is_built)}

    def op_gid_list(self, msg: dict) -> dict:
        """Live global ids on this replica (anti-entropy resync diffing)."""
        gids = np.fromiter(self._local_of_gid.keys(), dtype=np.int64,
                           count=len(self._local_of_gid))
        gids.sort()
        return {"ok": True, "gids": gids}

    def op_export_rows(self, msg: dict) -> dict:
        """Ship raw vectors (+ user payloads) for a gid set to a peer.

        Vectors come from the store's resident tier; for cosine stores
        they are the normalized rows, which re-normalize idempotently on
        the receiving side.  Unknown gids are an error — the caller just
        diffed the gid sets, so asking for a gid this replica lacks means
        the resync raced a concurrent delete and must be retried.
        """
        gids = np.asarray(msg["gids"], dtype=np.int64)
        missing = [int(g) for g in gids.tolist()
                   if int(g) not in self._local_of_gid]
        if missing:
            return {"err": f"export_rows: gids not present: {missing[:8]}"}
        locals_ = [self._local_of_gid[int(g)] for g in gids.tolist()]
        vectors = np.ascontiguousarray(
            self.store.dc.data[locals_], dtype=np.float32)
        payloads = []
        for local in locals_:
            p = self.store._payloads.get(local)
            payloads.append(p.get("u") if isinstance(p, dict) else None)
        return {"ok": True, "vectors": vectors, "payloads": payloads}

    def op_set_pq(self, msg: dict) -> dict:
        """Adopt the router-trained codebook (per-shard PQ code shipping)."""
        codebooks = np.asarray(msg["codebooks"], dtype=np.float32)
        m, ks, d_sub = codebooks.shape
        pq = ProductQuantizer(m=m, ks=ks, metric=self.store.metric,
                              seed=self.store.config.seed)
        pq.codebooks = codebooks
        pq.dim = m * d_sub
        self.shared_pq = pq
        self.store.apply_pq(pq)
        return {"ok": True, "pq_sig": pq_signature(pq)}

    def _add_rows(self, vectors: np.ndarray, gids: np.ndarray,
                  user_payloads=None) -> int:
        """Idempotent insert: rows whose gid is already present are skipped."""
        fresh = [i for i, g in enumerate(gids.tolist())
                 if int(g) not in self._local_of_gid]
        if not fresh:
            return 0
        vectors = np.ascontiguousarray(vectors[fresh], dtype=np.float32)
        payloads = []
        for i in fresh:
            p = {"g": int(gids[i])}
            if user_payloads is not None and user_payloads[i] is not None:
                p["u"] = user_payloads[i]
            payloads.append(p)
        locals_ = self.store.add(vectors, payloads=payloads)
        self._note_ids(locals_, gids[fresh])
        return len(fresh)

    def op_load(self, msg: dict) -> dict:
        """Bulk ingest + build (+ optional history fit)."""
        added = self._add_rows(msg["vectors"], msg["gids"],
                               msg.get("payloads"))
        self.store.build()
        train = msg.get("train")
        if train is not None and len(train):
            self.store.fit_history(np.asarray(train, dtype=np.float32))
        return {"ok": True, "added": added, "n": int(self.store.dc.size)}

    def op_add(self, msg: dict) -> dict:
        added = self._add_rows(msg["vectors"], msg["gids"],
                               msg.get("payloads"))
        return {"ok": True, "added": added}

    def op_delete(self, msg: dict) -> dict:
        gids = np.asarray(msg["gids"], dtype=np.int64)
        locals_ = [self._local_of_gid[g] for g in gids.tolist()
                   if g in self._local_of_gid]
        if locals_:
            self.store.delete(locals_)
        for g in gids.tolist():
            self._local_of_gid.pop(int(g), None)
        return {"ok": True, "deleted": len(locals_)}

    def op_search(self, msg: dict) -> dict:
        queries = np.asarray(msg["q"], dtype=np.float32)
        k = int(msg["k"])
        ef = msg.get("ef")
        deadline_ms = msg.get("deadline_ms")
        store = self.store
        ndc0 = store.dc.ndc
        searcher = store.searcher
        adc0 = searcher.adc_scored if searcher is not None else 0
        kwargs = {"batch_size": int(msg.get("batch_size", 256))}
        if deadline_ms is not None:
            kwargs["deadline_ms"] = float(deadline_ms)
        results = store.search_batch(queries, k, ef, **kwargs)
        ids = np.full((queries.shape[0], k), -1, dtype=np.int64)
        dists = np.full((queries.shape[0], k), np.inf, dtype=np.float64)
        degraded = np.zeros(queries.shape[0], dtype=bool)
        for i, result in enumerate(results):
            m = min(k, len(result.ids))
            if m:
                ids[i, :m] = self._gids[result.ids[:m]]  # local -> gid
                dists[i, :m] = result.distances[:m]
            degraded[i] = bool(result.degraded)
        return {
            "ok": True, "ids": ids, "dists": dists, "degraded": degraded,
            "ndc": int(store.dc.ndc - ndc0),
            "adc": int((searcher.adc_scored - adc0)
                       if searcher is not None else 0),
        }

    def op_observe(self, msg: dict) -> dict:
        accepted = self.store.observe(np.asarray(msg["q"], dtype=np.float32))
        return {"ok": True, "accepted": bool(accepted)}

    def op_stats(self, msg: dict) -> dict:
        stats = _jsonable(self.store.stats())
        stats["shard_id"] = self.shard_id
        stats["replica_id"] = self.replica_id
        stats["n_gids"] = len(self._local_of_gid)
        stats["pq_sig"] = pq_signature(
            self.store.adc.pq if self.store.adc is not None
            else self.shared_pq)
        return {"ok": True, "stats": stats}

    def op_checkpoint(self, msg: dict) -> dict:
        info = self.store.checkpoint()
        return {"ok": True, "snapshot_id": int(info.snapshot_id),
                "wal_seq": int(info.wal_seq)}

    def op_flush(self, msg: dict) -> dict:
        return {"ok": True, "drained": bool(self.store.flush())}

    def op_recovery_report(self, msg: dict) -> dict:
        return {"ok": True, "report": self.recovery_report}

    def op_arm_faults(self, msg: dict) -> dict:
        plan = FaultPlan(seed=int(msg.get("seed", 0)))
        for rule in msg["rules"]:
            plan.on(rule["point"], rule.get("action", "raise"),
                    nth=int(rule.get("nth", 1)),
                    every=bool(rule.get("every", False)),
                    delay_s=float(rule.get("delay_s", 0.05)),
                    probability=rule.get("probability"))
        FAULTS.arm(plan)
        return {"ok": True, "armed": len(msg["rules"])}

    def op_disarm_faults(self, msg: dict) -> dict:
        FAULTS.disarm()
        return {"ok": True}

    def dispatch(self, msg: dict) -> dict:
        op = msg.get("op", "")
        handler = getattr(self, f"op_{op}", None)
        if handler is None:
            return {"err": f"unknown op {op!r}"}
        return handler(msg)


def worker_main(sock, parent_sock, spec: dict) -> None:
    """Request loop of one forked shard worker (never returns normally).

    ``parent_sock`` is the router's end inherited through fork; it is closed
    first so the router sees a clean EOF if this process dies.
    """
    if parent_sock is not None:
        try:
            parent_sock.close()
        except OSError:
            pass
    try:
        server = _ShardServer(spec)
    except Exception as exc:
        try:
            send_msg(sock, {"err": f"worker startup failed: {exc!r}",
                            "trace": traceback.format_exc()})
        finally:
            sock.close()
        return
    send_msg(sock, {"ok": True, "shard": server.shard_id,
                    "replica": server.replica_id,
                    "recovered": server.recovery_report is not None})
    try:
        while True:
            try:
                msg = recv_msg(sock)
            except ConnectionError:
                break  # router gone; exit quietly
            FAULTS.fire(WORKER_OP_POINT)  # chaos: die/raise before applying
            if msg.get("op") == "shutdown":
                try:
                    if server.store is not None:
                        server.store.close()
                finally:
                    send_msg(sock, {"ok": True})
                break
            try:
                reply = server.dispatch(msg)
            except Exception as exc:
                reply = {"err": repr(exc),
                         "trace": traceback.format_exc(limit=8)}
            FAULTS.fire(WORKER_PRE_REPLY_POINT)  # gray failure: slow reply
            send_msg(sock, reply)
    finally:
        sock.close()


def shard_wal_dir(base_dir, shard_id: int, replica_id: int) -> pathlib.Path:
    """Canonical per-replica durability directory under ``base_dir``."""
    return (pathlib.Path(base_dir)
            / f"shard-{shard_id:03d}" / f"replica-{replica_id}")
