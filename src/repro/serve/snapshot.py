"""Immutable score snapshots — the unit of reader/writer isolation.

A :class:`ScoreSnapshot` is captured from a fitted
:class:`~repro.ensemble.IncrementalEnsemFDet` *after* an update has
finished, and is never mutated afterwards: the vote maps are private copies
and the ranking is precomputed. The service swaps the current snapshot
reference atomically (a single attribute store), so a reader either sees
the complete pre-update table or the complete post-update one — never a
mix of the two.

Scores are the raw MVA vote counts (``0`` for never-voted users), i.e.
exactly ``Detection.user_scores`` of the registry's ensemble adapters, so
a snapshot is bit-comparable against a cold
:meth:`~repro.ensemble.EnsemFDet.fit_window` on the same live graph.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..ensemble.voting import vote_scores
from ..errors import DetectionError

__all__ = ["ScoreSnapshot"]


def _ranked(labels: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Permutation ordering users by ``(-score, node index)``.

    The explicit index tie-break (the :class:`~repro.baselines.DegreeDetector`
    convention) keeps equal-score rankings deterministic across runs and
    independent of numpy's sort algorithm.
    """
    return np.lexsort((np.arange(labels.size), -scores))


@dataclass(frozen=True)
class ScoreSnapshot:
    """One immutable, complete view of the detector's vote table.

    Attributes
    ----------
    version:
        Monotonically increasing swap counter (1 = the initial fit).
        Readers can detect that an update landed between two requests.
    n_samples:
        Configured ensemble size ``N`` (the vote-count ceiling).
    default_threshold:
        The MVA threshold ``T`` used when a request does not name one.
    user_votes, merchant_votes:
        Private ``label -> votes`` copies of the vote table.
    user_labels, user_scores:
        Every user of the snapshot graph in local-index order with its
        vote count (0 when never voted); parallel arrays.
    ranked_users, ranked_scores:
        All users ordered by ``(-score, node index)`` — the deterministic
        serving ranking behind ``GET /top``.
    stale_members:
        Ensemble members currently carrying stale votes (degraded mode).
    n_users, n_merchants, n_edges:
        Shape of the graph the table is synchronised with.
    watermark:
        Rolling-window append watermark (``None`` for append-only state).
    captured_at:
        ``time.time()`` at capture (stats/diagnostics only).
    """

    version: int
    n_samples: int
    default_threshold: int
    user_votes: dict[int, int]
    merchant_votes: dict[int, int]
    user_labels: np.ndarray
    user_scores: np.ndarray
    ranked_users: np.ndarray
    ranked_scores: np.ndarray
    stale_members: tuple[int, ...] = ()
    n_users: int = 0
    n_merchants: int = 0
    n_edges: int = 0
    watermark: int | None = None
    captured_at: float = field(default_factory=time.time)

    @classmethod
    def capture(
        cls, detector, version: int, default_threshold: int | None = None
    ) -> "ScoreSnapshot":
        """Snapshot a fitted :class:`~repro.ensemble.IncrementalEnsemFDet`.

        Must be called from the service's single writer thread (or any
        context where no update is running): it reads the detector's
        current vote table and graph, which an update replaces. Everything
        it keeps is copied.
        """
        table = detector.vote_table
        graph = detector.graph
        if default_threshold is None:
            default_threshold = max(1, detector.config.n_samples // 4)
        labels = graph.user_labels.copy()
        scores = vote_scores(labels, table.user_votes)
        order = _ranked(labels, scores)
        watermark = None
        if detector.window_config is not None:
            watermark = int(detector.window().watermark)
        return cls(
            version=version,
            n_samples=detector.config.n_samples,
            default_threshold=int(default_threshold),
            user_votes={int(k): int(v) for k, v in table.user_votes.items()},
            merchant_votes={int(k): int(v) for k, v in table.merchant_votes.items()},
            user_labels=labels,
            user_scores=scores,
            ranked_users=labels[order],
            ranked_scores=scores[order],
            stale_members=detector.stale_members,
            n_users=graph.n_users,
            n_merchants=graph.n_merchants,
            n_edges=graph.n_edges,
            watermark=watermark,
        )

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def score_of(self, label: int) -> float:
        """Vote count of one user label (0.0 when never voted)."""
        return float(self.user_votes.get(int(label), 0))

    def knows_user(self, label: int) -> bool:
        """Whether ``label`` is a user of the snapshot graph."""
        return bool(np.any(self.user_labels == int(label)))

    def top(self, k: int) -> list[tuple[int, float]]:
        """The ``k`` most suspicious ``(label, score)`` pairs.

        ``k`` is clamped to ``[0, n_users]``; ties are already broken by
        node index in the precomputed ranking.
        """
        k = max(0, min(int(k), self.ranked_users.size))
        return [
            (int(label), float(score))
            for label, score in zip(
                self.ranked_users[:k].tolist(), self.ranked_scores[:k].tolist()
            )
        ]

    def detection(self, threshold: int | None = None) -> tuple[list[int], list[int]]:
        """Sorted ``(users, merchants)`` labels with ``votes >= threshold``.

        Mirrors :meth:`IncrementalEnsemFDet.detect` (plain MVA on the live
        table — degraded members keep serving their stale votes).
        """
        if threshold is None:
            threshold = self.default_threshold
        threshold = int(threshold)
        if threshold < 1:
            raise DetectionError(f"voting threshold T must be >= 1, got {threshold}")
        users = sorted(k for k, v in self.user_votes.items() if v >= threshold)
        merchants = sorted(k for k, v in self.merchant_votes.items() if v >= threshold)
        return users, merchants

    def vote_fingerprint(self) -> tuple:
        """Canonical ``(user, merchant)`` vote tuples for bit-compares."""
        return (
            tuple(sorted(self.user_votes.items())),
            tuple(sorted(self.merchant_votes.items())),
        )
