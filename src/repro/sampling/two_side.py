"""Two-side Node Sampling (TNS), §IV-A4 of the paper.

Samples **both** rows and columns of the adjacency matrix and keeps the
cross-section: an edge survives only when both its endpoints were picked, so
at ratio ``S`` the expected surviving edge fraction is ≈ ``S²`` — the paper's
warning that TNS needs a larger ``S`` or more samples ``N`` to see the same
amount of structure.
"""

from __future__ import annotations

import numpy as np

from ..graph import BipartiteGraph
from .base import SamplePlan, Sampler, check_ratio, compact_indices, resolve_rng

__all__ = ["TwoSideNodeSampler"]


class TwoSideNodeSampler(Sampler):
    """Sample fractions of both partitions and keep the induced edges.

    Parameters
    ----------
    ratio:
        Sample ratio applied to the user side (and to the merchant side
        unless ``merchant_ratio`` is given).
    merchant_ratio:
        Optional distinct ratio for the merchant side.

    A sampled node left with no edge is not part of the member.
    """

    name = "tns"

    def __init__(self, ratio: float, merchant_ratio: float | None = None) -> None:
        super().__init__(ratio)
        self.merchant_ratio = check_ratio(merchant_ratio) if merchant_ratio is not None else self.ratio

    def expected_edge_fraction(self) -> float:
        """Expected fraction of original edges surviving: ``S_u · S_v``."""
        return self.ratio * self.merchant_ratio

    def plan(
        self, graph: BipartiteGraph, rng: np.random.Generator | int | None = None
    ) -> SamplePlan:
        generator = resolve_rng(rng)
        n_users = min(int(np.ceil(self.ratio * graph.n_users)), graph.n_users)
        n_merchants = min(
            int(np.ceil(self.merchant_ratio * graph.n_merchants)), graph.n_merchants
        )
        if n_users == 0 or n_merchants == 0:
            return SamplePlan(kind="edges", edge_indices=np.empty(0, dtype=np.int64))
        users = generator.choice(graph.n_users, size=n_users, replace=False)
        merchants = generator.choice(graph.n_merchants, size=n_merchants, replace=False)
        return SamplePlan(
            kind="nodes",
            users=compact_indices(users, graph.n_users),
            merchants=compact_indices(merchants, graph.n_merchants),
        )
