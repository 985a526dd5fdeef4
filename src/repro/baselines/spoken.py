"""SpokEn (Prakash et al., PAKDD 2010) — spectral "eigenspokes" baseline.

SpokEn observes that in the scatter plot of pairs of singular vectors of a
graph's adjacency matrix, tightly-knit communities show up as *spokes*:
groups of nodes with large coordinates on one axis and near-zero on the
other. Fraud rings — near-bipartite-cliques — concentrate mass on single
singular components.

Practical scoring (as the EnsemFDet paper uses it, with 25 components): a
user's suspiciousness is its largest absolute, per-component-normalised
coordinate across the top-``k`` left singular vectors. Sweeping a threshold
over this score yields the PR curves of Fig. 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DetectionError
from ..graph import BipartiteGraph, to_scipy
from ..logging_utils import get_logger

__all__ = ["SpokenDetector", "SpokenScores", "clamp_svd_rank", "svd_start_vector"]

_LOG = get_logger("baselines")


def clamp_svd_rank(name: str, n_components: int, shape: tuple[int, int]) -> int:
    """The largest usable truncated-SVD rank for an ``m × n`` matrix.

    ``scipy.sparse.linalg.svds`` requires ``k < min(shape)``; asking for
    ``n_components >= min(n_users, n_merchants)`` (easy on tiny graphs)
    would otherwise die inside ARPACK. The clamp is logged so silent
    rank reductions do not masquerade as the configured setting.
    """
    max_rank = max(1, min(shape) - 1)
    if n_components > max_rank:
        _LOG.warning(
            "%s: clamping n_components from %d to %d for a %dx%d adjacency matrix",
            name,
            n_components,
            max_rank,
            shape[0],
            shape[1],
        )
        return max_rank
    return n_components


def svd_start_vector(shape: tuple[int, int]) -> np.ndarray:
    """A fixed ARPACK starting vector for reproducible truncated SVDs.

    ``scipy.sparse.linalg.svds`` seeds its iteration with a *random*
    vector by default, which makes the spectral baselines wiggle in the
    last few ULPs from run to run — enough to break bitwise-regression
    fixtures. A fixed (but generic, non-degenerate) starting vector makes
    the whole detector layer reproducible.
    """
    return np.random.default_rng(0).random(min(shape))


@dataclass(frozen=True)
class SpokenScores:
    """Continuous suspiciousness scores from the spectral projection."""

    user_scores: np.ndarray
    merchant_scores: np.ndarray
    n_components: int

    def top_users(self, n: int) -> np.ndarray:
        """Local indices of the ``n`` highest-scoring users."""
        n = min(n, self.user_scores.size)
        order = np.argsort(-self.user_scores, kind="stable")
        return order[:n]


class SpokenDetector:
    """Score nodes by their mass in the top-``k`` singular components.

    Parameters
    ----------
    n_components:
        Number of singular vector pairs to inspect (paper: 25). Clamped to
        the largest rank scipy can extract from the matrix.
    """

    def __init__(self, n_components: int = 25) -> None:
        if n_components < 1:
            raise DetectionError(f"n_components must be >= 1, got {n_components}")
        self.n_components = n_components

    def _svd(self, graph: BipartiteGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        from scipy.sparse.linalg import svds  # on first use: no other detector needs scipy

        matrix = to_scipy(graph, binary=True).astype(np.float64)
        k = clamp_svd_rank("spoken", self.n_components, matrix.shape)
        u, s, vt = svds(matrix, k=k, v0=svd_start_vector(matrix.shape))
        order = np.argsort(-s)
        return u[:, order], s[order], vt[order, :]

    def score(self, graph: BipartiteGraph) -> SpokenScores:
        """Compute suspiciousness scores for every user and merchant.

        Each singular vector is normalised to unit infinity-norm so that
        components of different strength contribute comparably; a node's
        score is its maximum normalised coordinate over the components.
        """
        if graph.n_users < 2 or graph.n_merchants < 2:
            raise DetectionError("SpokEn needs at least a 2x2 adjacency matrix")
        u, s, vt = self._svd(graph)
        user_scores = np.zeros(graph.n_users, dtype=np.float64)
        merchant_scores = np.zeros(graph.n_merchants, dtype=np.float64)
        for j in range(s.size):
            left = np.abs(u[:, j])
            right = np.abs(vt[j, :])
            left_max = left.max() or 1.0
            right_max = right.max() or 1.0
            user_scores = np.maximum(user_scores, left / left_max)
            merchant_scores = np.maximum(merchant_scores, right / right_max)
        return SpokenScores(
            user_scores=user_scores,
            merchant_scores=merchant_scores,
            n_components=int(s.size),
        )

    def score_users(self, graph: BipartiteGraph) -> np.ndarray:
        """User suspiciousness scores only (evaluation convenience)."""
        return self.score(graph).user_scores
