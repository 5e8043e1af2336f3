"""Aggregatable stats: collision-free merging of per-shard counter dicts.

``VectorStore.stats()`` (and therefore every shard worker's ``stats`` op)
returns a nested dict of counters, gauges, and identity strings.  Summing
those naively across shards is wrong in three ways this module fixes:

- **Nested counters** (``compressed.adc_scored``, ``serving.n_degraded``)
  live under the same keys in every shard's dict — a flat ``update`` would
  collide and keep only the last shard.  :func:`merge_stats` recurses, so
  each nested counter sums in place.
- **Non-additive values**: booleans AND (``consistent`` is only true if
  every shard is), identity strings collapse when equal (one shared
  ``pq_sig``) and become a sorted list when they differ — a divergence is
  *visible* instead of silently dropped.
- **Identity keys** (``shard_id``, ``replica_id``) are enumerations, not
  sums; they merge to sorted value lists.

The router's :meth:`~repro.cluster.router.ClusterRouter.stats` and the
``repro cluster`` CLI expose ``merged = merge_stats(per_shard)`` next to the
raw per-shard list.
"""

from __future__ import annotations

import numbers

#: Keys that identify a shard rather than count anything: merged to the
#: sorted set of observed values, never summed.
IDENTITY_KEYS = frozenset({"shard_id", "replica_id", "pq_sig", "metric",
                           "mode", "scheduler_mode", "merge_every"})


def _merge_values(key: str, values: list):
    if not values:
        return None
    first = values[0]
    if isinstance(first, dict):
        return merge_stats([v for v in values if isinstance(v, dict)])
    if isinstance(first, bool):
        return all(bool(v) for v in values)
    if key in IDENTITY_KEYS:
        uniq = sorted({v for v in values}, key=str)
        return uniq[0] if len(uniq) == 1 else uniq
    if isinstance(first, numbers.Number):
        total = sum(v for v in values if isinstance(v, numbers.Number))
        return type(first)(total) if isinstance(first, int) else total
    # strings / lists / None: collapse when unanimous, enumerate otherwise
    uniq = sorted({str(v) for v in values})
    return values[0] if len(uniq) == 1 else uniq


def merge_stats(stats_dicts: list[dict]) -> dict:
    """Merge per-shard stats dicts into one rollup without key collisions.

    Numbers sum (recursively, so ``compressed.adc_scored`` across shards
    adds up), booleans AND, dicts merge key-wise, and identity values
    (``shard_id``, ``pq_sig``...) collapse to a single value when unanimous
    or a sorted list when shards disagree.  Keys present in only some
    shards merge over the shards that have them.
    """
    stats_dicts = [s for s in stats_dicts if isinstance(s, dict)]
    if not stats_dicts:
        return {}
    merged: dict = {}
    keys: list[str] = []
    for stats in stats_dicts:
        for key in stats:
            if key not in merged:
                merged[key] = True
                keys.append(key)
    for key in keys:
        merged[key] = _merge_values(
            key, [s[key] for s in stats_dicts if key in s])
    return merged
