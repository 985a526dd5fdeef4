"""FBox (Shah et al., ICDM 2014) — SVD reconstruction-error baseline.

FBox's insight is adversarial: attacks *small enough in scale* are invisible
to the top-``k`` spectral components, so instead of looking **at** the top
components (SpokEn), look at what they fail to reconstruct. A node whose
adjacency row lies almost entirely outside the top-``k`` subspace — i.e.
whose *reconstructed degree* is far below what nodes of its actual degree
normally get — is suspicious.

Implementation: the rank-``k`` reconstruction of user ``i``'s row has norm
``‖U_k[i,:] · diag(σ)‖₂``. Users are bucketed by actual degree; within a
bucket, a user sitting in the bottom ``τ`` fraction of reconstructed norms
is flagged. Sweeping ``τ`` produces the PR curve of Fig. 3 (the paper finds
FBox unstable across datasets — which this reproduction also exhibits).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DetectionError
from ..graph import BipartiteGraph, to_scipy
from .spoken import clamp_svd_rank, svd_start_vector

__all__ = ["FBoxDetector", "FBoxScores"]


@dataclass(frozen=True)
class FBoxScores:
    """Suspiciousness as within-degree-bucket reconstruction deficiency.

    ``user_scores[i] ∈ [0, 1]`` is ``1 − (percentile rank of user i's
    reconstructed norm among users of similar degree)`` — higher means the
    spectrum explains the user's behaviour *worse*, i.e. more suspicious.
    Users below ``min_degree`` score 0 (FBox does not judge near-silent
    accounts). ``n_components`` is the rank actually used, after clamping
    to what the matrix supports.
    """

    user_scores: np.ndarray
    reconstructed_norms: np.ndarray
    degrees: np.ndarray
    n_components: int = 0


class FBoxDetector:
    """Score users by how poorly the top-``k`` SVD reconstructs them.

    Parameters
    ----------
    n_components:
        Rank ``k`` of the truncated SVD.
    min_degree:
        Users with fewer purchases than this are never flagged.
    n_degree_buckets:
        Number of logarithmic degree buckets used for the percentile
        comparison.
    """

    def __init__(
        self,
        n_components: int = 25,
        min_degree: int = 2,
        n_degree_buckets: int = 20,
    ) -> None:
        if n_components < 1:
            raise DetectionError(f"n_components must be >= 1, got {n_components}")
        if min_degree < 0:
            raise DetectionError(f"min_degree must be >= 0, got {min_degree}")
        if n_degree_buckets < 1:
            raise DetectionError(f"n_degree_buckets must be >= 1, got {n_degree_buckets}")
        self.n_components = n_components
        self.min_degree = min_degree
        self.n_degree_buckets = n_degree_buckets

    def score(self, graph: BipartiteGraph) -> FBoxScores:
        """Compute reconstruction-deficiency scores for every user."""
        if graph.n_users < 2 or graph.n_merchants < 2:
            raise DetectionError("FBox needs at least a 2x2 adjacency matrix")
        from scipy.sparse.linalg import svds  # on first use: no other detector needs scipy

        matrix = to_scipy(graph, binary=True).astype(np.float64)
        k = clamp_svd_rank("fbox", self.n_components, matrix.shape)
        u, s, _ = svds(matrix, k=k, v0=svd_start_vector(matrix.shape))
        # ‖row_i reconstruction‖₂ = ‖U[i, :] · diag(σ)‖₂
        reconstructed = np.linalg.norm(u * s[np.newaxis, :], axis=1)
        degrees = graph.user_degrees().astype(np.float64)

        scores = np.zeros(graph.n_users, dtype=np.float64)
        eligible = degrees >= self.min_degree
        if eligible.any():
            max_degree = degrees[eligible].max()
            edges = np.logspace(
                np.log10(max(self.min_degree, 1)),
                np.log10(max(max_degree, self.min_degree + 1.0)),
                self.n_degree_buckets + 1,
            )
            bucket = np.clip(
                np.digitize(degrees, edges, right=True), 0, self.n_degree_buckets - 1
            )
            for b in range(self.n_degree_buckets):
                members = np.nonzero(eligible & (bucket == b))[0]
                if members.size == 0:
                    continue
                norms = reconstructed[members]
                # percentile rank within the bucket (average rank for ties)
                order = norms.argsort(kind="stable")
                ranks = np.empty(members.size, dtype=np.float64)
                ranks[order] = np.arange(members.size, dtype=np.float64)
                if members.size > 1:
                    ranks /= members.size - 1
                else:
                    ranks[:] = 1.0  # a singleton bucket cannot look anomalous
                scores[members] = 1.0 - ranks
        return FBoxScores(
            user_scores=scores,
            reconstructed_norms=reconstructed,
            degrees=degrees,
            n_components=int(s.size),
        )

    def score_users(self, graph: BipartiteGraph) -> np.ndarray:
        """User suspiciousness scores only (evaluation convenience)."""
        return self.score(graph).user_scores

    def detect_users(self, graph: BipartiteGraph, tau: float) -> np.ndarray:
        """Local user indices flagged at percentile threshold ``tau``."""
        if not 0.0 < tau <= 1.0:
            raise DetectionError(f"tau must be in (0, 1], got {tau}")
        scores = self.score(graph).user_scores
        return np.nonzero(scores >= 1.0 - tau)[0]
