"""One-side Node Sampling (ONS), §IV-A3 of the paper.

Samples rows (or columns) of the adjacency matrix ``W``: pick a fraction
``S`` of one side's nodes, keep every edge incident to a picked node, keep
all touched nodes of the other side.

Which side to sample matters (the paper's "task-oriented" and "retain
topology" principles): when ``Davg(V) ≫ Davg(U)``, sampling the merchant
side ``V`` retains dense components (picking one busy merchant pulls in its
whole user crowd), whereas sampling the sparse user side shatters them. The
Fig.-5 experiment reproduces exactly this contrast.
"""

from __future__ import annotations

import numpy as np

from ..errors import SamplingError
from ..graph import BipartiteGraph
from .base import SamplePlan, Sampler, compact_indices, resolve_rng

__all__ = ["OneSideNodeSampler", "Side", "recommend_side"]


class Side:
    """String constants naming the two partitions."""

    USER = "user"
    MERCHANT = "merchant"
    ALL = (USER, MERCHANT)


def recommend_side(graph: BipartiteGraph) -> str:
    """The paper's *retain topology* rule: sample the denser side.

    Returns the side whose average degree is higher — picking those nodes
    preserves dense components after sampling (§IV-A3, second bullet).
    """
    avg_user = graph.n_edges / graph.n_users if graph.n_users else 0.0
    avg_merchant = graph.n_edges / graph.n_merchants if graph.n_merchants else 0.0
    return Side.MERCHANT if avg_merchant >= avg_user else Side.USER


class OneSideNodeSampler(Sampler):
    """Sample a fraction ``S`` of one side's nodes plus their edges.

    Parameters
    ----------
    ratio:
        Sample ratio ``S = |U_s| / |U|`` (or over ``V``).
    side:
        ``"user"`` or ``"merchant"`` — which partition to sample.

    A sampled node left with no edge is not part of the member: isolated
    nodes can never join a dense block.
    """

    name = "ons"

    def __init__(self, ratio: float, side: str) -> None:
        super().__init__(ratio)
        if side not in Side.ALL:
            raise SamplingError(f"side must be one of {Side.ALL}, got {side!r}")
        self.side = side
        self.name = f"ons_{side}"

    def plan(
        self, graph: BipartiteGraph, rng: np.random.Generator | int | None = None
    ) -> SamplePlan:
        generator = resolve_rng(rng)
        if self.side == Side.USER:
            population = graph.n_users
        else:
            population = graph.n_merchants
        n_pick = min(int(np.ceil(self.ratio * population)), population)
        if n_pick == 0:
            return SamplePlan(kind="edges", edge_indices=np.empty(0, dtype=np.int64))
        chosen = compact_indices(
            generator.choice(population, size=n_pick, replace=False), population
        )
        if self.side == Side.USER:
            return SamplePlan(kind="nodes", users=chosen)
        return SamplePlan(kind="nodes", merchants=chosen)
