"""Sharded, replicated serving: shard workers, scatter-gather router,
async coalescing front door, gray-failure resilience.  See
docs/architecture.md ("Scaling out").
"""

from repro.cluster.frontdoor import FrontDoor
from repro.cluster.protocol import (
    ProtocolError,
    decode,
    encode,
    recv_msg,
    send_msg,
)
from repro.cluster.resilience import (
    Backoff,
    BreakerConfig,
    BrownoutController,
    CircuitBreaker,
    LatencyTracker,
    Overloaded,
)
from repro.cluster.router import (
    ClusterError,
    ClusterRouter,
    hash_partition,
    merge_topk_batch,
    shard_budget_ms,
)
from repro.cluster.stats import merge_stats
from repro.cluster.worker import (
    WORKER_OP_POINT,
    WORKER_PRE_REPLY_POINT,
    pq_signature,
    shard_wal_dir,
)

__all__ = [
    "Backoff",
    "BreakerConfig",
    "BrownoutController",
    "CircuitBreaker",
    "ClusterError",
    "ClusterRouter",
    "FrontDoor",
    "LatencyTracker",
    "Overloaded",
    "ProtocolError",
    "WORKER_OP_POINT",
    "WORKER_PRE_REPLY_POINT",
    "decode",
    "encode",
    "hash_partition",
    "merge_stats",
    "merge_topk_batch",
    "pq_signature",
    "recv_msg",
    "send_msg",
    "shard_budget_ms",
    "shard_wal_dir",
]
