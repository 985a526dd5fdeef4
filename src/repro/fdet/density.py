"""Density metrics for dense-block detection (paper Definition 2).

The paper scores a subgraph ``S`` with the Fraudar-style log-weighted
density

.. math::

    φ(S) = \\frac{1}{|S|} \\sum_{(i,j) ∈ E(S)} \\frac{1}{\\log(d_j + c)}

where ``d_j`` is the degree of the *merchant* endpoint and ``c > 1`` keeps
the logarithm positive. Penalising edges into globally busy merchants makes
camouflage (fraudsters also buying from popular shops) ineffective, per
Hooi et al.'s Fraudar analysis.

A metric maps each merchant's degree to a multiplier, and an edge weighs
``w_e``, its merchant's multiplier times the edge's own weight, so that
``density(S) = Σ_{e ∈ E(S)} w_e / |S|``. The greedy peeling engine only
ever consumes these edge weights.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..errors import DetectionError
from ..graph import BipartiteGraph

__all__ = [
    "DensityMetric",
    "LogWeightedDensity",
    "AverageDegreeDensity",
]


class DensityMetric(ABC):
    """Decomposable density score over bipartite subgraphs."""

    #: short identifier for reports
    name: str = "density"

    @abstractmethod
    def merchant_degree_weights(self, degrees: np.ndarray) -> np.ndarray:
        """Per-merchant multiplier applied to every incident edge."""

    def edge_weights(
        self,
        graph: BipartiteGraph,
        merchant_degrees: np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-edge contribution weights for ``graph``.

        ``merchant_degrees`` overrides the degree source — FDET's *frozen*
        weight policy passes the original graph's degrees so that weights do
        not drift as detected blocks are carved out.
        """
        if merchant_degrees is None:
            merchant_degrees = graph.merchant_degrees()
        elif merchant_degrees.shape[0] != graph.n_merchants:
            raise DetectionError(
                "merchant_degrees length does not match the graph's merchant count"
            )
        multipliers = self.merchant_degree_weights(np.asarray(merchant_degrees))
        return multipliers[graph.edge_merchants] * graph.weights_or_ones()

    def density(
        self,
        graph: BipartiteGraph,
        merchant_degrees: np.ndarray | None = None,
    ) -> float:
        """``φ`` of the whole graph: total weight over total node count."""
        if graph.n_nodes == 0:
            return 0.0
        return float(self.edge_weights(graph, merchant_degrees).sum()) / graph.n_nodes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class LogWeightedDensity(DensityMetric):
    """The paper's ``φ``: edge weight ``1/log(d_j + c)`` (Definition 2).

    Parameters
    ----------
    c:
        The constant added inside the logarithm. Must exceed ``1`` so the
        weight stays positive for degree-0 merchants; the Fraudar reference
        implementation uses ``5``, which we adopt as the default.
    """

    name = "log_weighted"

    def __init__(self, c: float = 5.0) -> None:
        if c <= 1.0:
            raise DetectionError(f"c must be > 1 so log(d + c) > 0; got {c}")
        self.c = float(c)

    def merchant_degree_weights(self, degrees: np.ndarray) -> np.ndarray:
        return 1.0 / np.log(degrees.astype(np.float64) + self.c)

    def __repr__(self) -> str:  # pragma: no cover
        return f"LogWeightedDensity(c={self.c})"


class AverageDegreeDensity(DensityMetric):
    """Charikar's average-degree objective: every edge weighs ``1``.

    ``density(S) = |E(S)| / |S|`` — half the average degree. Kept as the
    classic baseline objective and for ablations against ``φ``.
    """

    name = "average_degree"

    def merchant_degree_weights(self, degrees: np.ndarray) -> np.ndarray:
        return np.ones(degrees.shape[0], dtype=np.float64)
