"""Shared low-level helpers: bitsets, seeded RNG, validation, parallel map."""

from repro.utils.bitset import BitMatrix
from repro.utils.rng_utils import ensure_rng
from repro.utils.parallel import chunk_bounds, parallel_map
from repro.utils.validation import (
    check_matrix,
    check_vector,
    check_positive,
    check_fraction,
)

__all__ = [
    "BitMatrix",
    "ensure_rng",
    "chunk_bounds",
    "parallel_map",
    "check_matrix",
    "check_vector",
    "check_positive",
    "check_fraction",
]
