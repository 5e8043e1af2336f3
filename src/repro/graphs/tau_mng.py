"""τ-MNG (Peng et al. 2023) — the title-collision paper's index, as baseline.

τ-MG keeps an edge (u, v) unless an occluder w is closer to v than u is *by a
3τ margin*; the monotonicity margin guarantees greedy search finds the exact
NN of any query within τ of the base data.  τ-MNG approximates τ-MG the same
way NSG approximates MRNG: candidates come from a greedy search around each
node and the τ-rule is applied locally.  Construction is NSG's pipeline with
:func:`repro.graphs.pruning.tau_prune` substituted, which is exactly how the
reference implementation differs from NSG.
"""

from __future__ import annotations

import numpy as np

from repro.distances import Metric
from repro.graphs.nsg import NSG
from repro.graphs.pruning import tau_prune


class TauMNG(NSG):
    """τ-Monotonic Neighborhood Graph.

    ``tau`` is expressed in the library's comparison-distance units.  The
    paper recommends dataset-dependent τ around the typical query-to-base
    displacement; :meth:`suggest_tau` estimates that from a query sample.

    Construction reuses NSG's pipeline wholesale; only the occlusion rule
    differs.
    """

    def __init__(
        self,
        data: np.ndarray,
        metric: Metric | str,
        R: int = 32,
        L: int = 64,
        knn_k: int = 32,
        tau: float = 0.01,
    ):
        if tau < 0:
            raise ValueError(f"tau must be non-negative, got {tau}")
        self.tau = tau
        super().__init__(data, metric, R=R, L=L, knn_k=knn_k)

    def _prune_rule(self, u: int, pool) -> list[int]:
        return tau_prune(self.dc, u, pool, self.R, tau=self.tau)

    @staticmethod
    def suggest_tau(gt_first_distances: np.ndarray) -> float:
        """Heuristic τ: half the median query-to-1NN distance of a sample."""
        return float(np.median(np.asarray(gt_first_distances)) / 2.0)
