"""Correctness oracle: brute-force ground truth and per-operation checks.

Every operation the benchmark issues is counted in a :class:`Tally`; one
that raised, was shed, came back ``degraded``, returned fewer than k ids or
returned a deleted id is a failure.  Recall is measured against brute force
over the ids live at measurement time.  The oracle uses none of the program's
own code (``repro.evalx`` has a ground truth and a recall too): what it
checks must not be able to agree with it by sharing a fault.
"""

from __future__ import annotations

import collections

import numpy as np


def _unit(rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float32)
    return rows / np.maximum(np.linalg.norm(rows, axis=1, keepdims=True), 1e-12)


def ground_truth(vectors: np.ndarray, queries: np.ndarray, k: int,
                 live: np.ndarray | None = None) -> np.ndarray:
    """Exact cosine top-``k`` ids per query, ``(n_queries, k)``.

    ``live`` is a boolean mask over ``vectors``; dead rows never appear.
    """
    sims = _unit(queries) @ _unit(vectors).T
    if live is not None:
        sims[:, ~np.asarray(live, dtype=bool)] = -np.inf
    top = np.argpartition(-sims, k - 1, axis=1)[:, :k]
    order = np.argsort(-np.take_along_axis(sims, top, axis=1), axis=1)
    return np.take_along_axis(top, order, axis=1)


def pad_ids(ids, k: int) -> np.ndarray:
    """One result's ids as a length-``k`` row, ``-1`` where short."""
    row = np.full(k, -1, dtype=np.int64)
    ids = np.asarray(ids, dtype=np.int64)[:k]
    row[:ids.size] = ids
    return row


def recall_rows(found: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Per-query recall@k of ``found`` (``-1`` padded) against ``truth``."""
    hit = (found[:, :, None] == truth[:, None, :]).any(axis=2)
    return hit.sum(axis=1) / truth.shape[1]


def recall_summary(per_query: np.ndarray) -> tuple[float, float]:
    """``(mean recall, mean recall over the worst decile of queries)``."""
    worst = np.sort(per_query)[:max(1, per_query.size // 10)]
    return float(per_query.mean()), float(worst.mean())


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: collections.Counter[str] = collections.Counter()

    def ok(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, reason: str, n: int = 1) -> None:
        self.attempted += n
        self.failed += n
        self.reasons[reason] += n

    def check_results(self, found: np.ndarray, raised: np.ndarray,
                      degraded: np.ndarray, dead: np.ndarray) -> None:
        """Tally one batch of search results.

        ``found`` is ``(n, k)`` ids padded with ``-1``; ``raised`` and
        ``degraded`` are per-row flags; ``dead`` marks, per cell, an id that
        was deleted before the search ran.  One failure per row at most.
        """
        short = (found < 0).any(axis=1) & ~raised
        stale = dead.any(axis=1)
        bad = raised | degraded | short | stale
        self.attempted += int(found.shape[0])
        self.failed += int(bad.sum())
        for reason, mask in (("raised", raised), ("degraded", degraded),
                             ("short", short), ("deleted_id", stale)):
            if mask.any():
                self.reasons[reason] += int(mask.sum())

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
