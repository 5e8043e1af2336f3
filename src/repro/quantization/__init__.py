"""Vector quantization substrate: k-means, Product Quantization, and the
PQ-accelerated search recipe the store's compressed tier serves.

Sec. 3 of the paper notes that graph indexes "can be combined with other
methods to achieve better overall performance", citing quantization+graph
hybrids (SymphonyQG et al.).  This package provides that composition for
the NGFix* index: greedy traversal scored by asymmetric-distance (ADC)
table lookups over PQ codes, followed by exact re-ranking of the shortlist.
"""

from repro.quantization.kmeans import kmeans
from repro.quantization.pq import ProductQuantizer
from repro.quantization.adc import ADCComputer
from repro.quantization.searcher import (exact_rerank, fallback_shortlist,
                                         pq_greedy_search, rerank_block,
                                         visited_shortlist)
from repro.quantization.ivf import IVFFlat

__all__ = [
    "kmeans",
    "ProductQuantizer",
    "ADCComputer",
    "pq_greedy_search",
    "rerank_block",
    "exact_rerank",
    "fallback_shortlist",
    "visited_shortlist",
    "IVFFlat",
]
