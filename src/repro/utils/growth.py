"""Amortised O(1) row appends: one capacity-doubling rule for every array
that grows with the corpus (base rows, visited stamps, node stamps, the
adjacency slab)."""

from __future__ import annotations

import numpy as np


def with_capacity(store: np.ndarray, size: int, needed: int) -> np.ndarray:
    """The backing array to hold ``needed`` rows given ``store[:size]`` live.

    ``store`` itself while it has the room — the caller writes the new rows
    past ``size`` and re-slices its ``[:needed]`` view, which stays
    C-contiguous (what :func:`repro.graphs.native.dense` requires), and the
    prefix a reader already holds is never rewritten.  Otherwise a *new*
    zero-filled array of at least twice the capacity carrying the live
    rows over: never a resize in place, so whoever still holds the old
    array (an epoch's reader, a ``native.Graph`` spec) reads stale data,
    not freed memory.
    """
    capacity = store.shape[0]
    if needed <= capacity:
        return store
    grown = np.zeros((max(needed, 2 * capacity),) + store.shape[1:],
                     dtype=store.dtype)
    grown[:size] = store[:size]
    return grown
