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
    """Every setting of a store; see :class:`~repro.store.VectorStore` for
    what each one does.

    Construction validates and normalizes (``metric`` to a
    :class:`~repro.distances.Metric`, ``fix_config`` to a
    :class:`~repro.core.fixer.FixConfig`), so two configs that mean the
    same store compare equal and a bad value fails where it was written,
    not in a worker process or at the next restart.  Change a setting with
    :func:`dataclasses.replace`, which validates again.
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
