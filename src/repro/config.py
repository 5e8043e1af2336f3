"""StoreConfig — a :class:`~repro.store.VectorStore`'s settings, declared once.

The field list, the defaults, the validation and the JSON codec all live
here; everything that builds, persists, ships or restores a store reads
this object instead of re-spelling the list:

    constructor keywords ──► StoreConfig ──► store-config.json ──► recover()
                                        └──► worker spec ──► shard store

``wal_dir`` and ``memmap_path`` say *where* a store keeps its files, not how
it behaves, and stay outside (a recovered or respawned store is told its
location by whoever restarts it).
"""

from __future__ import annotations

import dataclasses

from repro.core.fixer import FixConfig
from repro.distances import Metric
from repro.utils.validation import check_positive

#: File a durable store keeps in its ``wal_dir``: :meth:`StoreConfig.to_dict`
#: as JSON, rewritten whenever a setting changes at runtime.
CONFIG_NAME = "store-config.json"


def _coerce_fix_config(value) -> FixConfig:
    if isinstance(value, FixConfig):
        return value
    # Default: approximate preprocessing, so history fitting in a store
    # never needs exact ground truth.
    return FixConfig(**({"preprocess": "approx"} if value is None else value))


@dataclasses.dataclass(frozen=True)
class StoreConfig:
    """Every setting of a store, declared, defaulted and documented once.

    :class:`~repro.store.VectorStore`, :meth:`VectorStore.load
    <repro.store.VectorStore.load>`, :func:`repro.durability.recover` and
    :class:`~repro.cluster.ClusterRouter` take these fields as keywords and
    hand them here unchanged, so any of them can set any field and an
    unknown name raises ``TypeError``.

    Construction validates and normalizes (``metric`` to a
    :class:`~repro.distances.Metric`, ``fix_config`` to a
    :class:`~repro.core.fixer.FixConfig`), so two configs that mean the
    same store compare equal and a bad value fails where it was written,
    not in a worker process or at the next restart.  Change a setting with
    :func:`dataclasses.replace`, which validates again.

    Fields
    ------
    dim:
        Vector dimensionality (fixed at construction).
    metric:
        "l2", "ip", or "cosine".
    M, ef_construction:
        Base-graph build parameters.
    seed:
        Seeds graph construction and PQ codebook fitting (a cluster shard
        runs with ``seed + shard``).
    scheduler_mode:
        "inline" (deterministic; repairs and merges drain synchronously at
        mutation/observe boundaries) or "thread" (a background worker does
        the draining).
    merge_every:
        Overlay mutation count that triggers merging into a fresh epoch.
    sync_every:
        WAL fsync batching of a durable store: fsync once per this many
        records (1 = every record, 0 = rely on OS flush only).  See
        docs/durability.md for the durability window each setting buys.
    checkpoint_every:
        Automatic checkpoint cadence in WAL records (0 = manual
        :meth:`~repro.store.VectorStore.checkpoint` only).
    compressed:
        When True, serving runs the PQ-resident hot path: traversal scores
        candidates with ADC table lookups over a resident uint8 code matrix
        (re-encoded incrementally on insert) and only the top-``rerank``
        shortlist touches full-precision vectors.
    pq_m, pq_ks:
        Product-quantizer geometry for compressed mode: subspace count
        (``None`` = largest of 8/6/4/3/2/1 dividing ``dim``) and centroids
        per codebook.
    rerank:
        Exact re-rank budget of the compressed path (shortlist length
        re-scored with full-precision distances; >= k at search time).
    beam_width:
        Candidates a *block* search (``search_batch``, the front door, a
        cluster shard) expands per query per round (``None`` = the
        searcher's own default: 1 on the exact path, wide on the
        compressed one).  A lone ``search`` is a block of one walked at
        width 1, so it returns the same answer at any setting.
    fix_config:
        NGFix* configuration (a :class:`~repro.core.fixer.FixConfig` or
        its dict form); defaults to approximate preprocessing so history
        fitting never needs exact ground truth.
    """

    dim: int
    metric: Metric | str = Metric.COSINE
    M: int = 16
    ef_construction: int = 100
    seed: int = 0
    scheduler_mode: str = "inline"
    merge_every: int = 256
    sync_every: int = 8
    checkpoint_every: int = 0
    compressed: bool = False
    pq_m: int | None = None
    pq_ks: int = 32
    rerank: int = 50
    beam_width: int | None = None
    fix_config: FixConfig | dict | None = None

    def __post_init__(self):
        for name in ("dim", "M", "ef_construction", "merge_every", "pq_ks", "rerank"):
            check_positive(getattr(self, name), name)
        for name in ("pq_m", "beam_width"):
            if getattr(self, name) is not None:
                check_positive(getattr(self, name), name)
        for name in ("sync_every", "checkpoint_every"):
            check_positive(getattr(self, name), name, strict=False)
        if self.scheduler_mode not in ("inline", "thread"):
            raise ValueError("scheduler_mode must be 'inline' or 'thread', "
                             f"got {self.scheduler_mode!r}")
        normalized = dict(
            metric=Metric.parse(self.metric),
            fix_config=_coerce_fix_config(self.fix_config))
        for name, value in normalized.items():
            object.__setattr__(self, name, value)

    def to_dict(self) -> dict:
        """Plain JSON-serializable form: the ``store-config.json`` schema and
        the settings half of a cluster worker spec."""
        return dict(
            vars(self), metric=self.metric.value,
            fix_config=dataclasses.asdict(self.fix_config))

    @classmethod
    def from_dict(cls, data: dict) -> "StoreConfig":
        """Inverse of :meth:`to_dict`.  Keys this version does not know (an
        old file's ``serving`` or a since-removed setting, a worker spec's
        ``shard_id``) are ignored and missing ones take today's defaults, so
        files written by earlier versions keep loading."""
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})
