"""Immutable score snapshots — the unit of reader/writer isolation.

A :class:`ScoreSnapshot` is captured from a fitted
:class:`~repro.ensemble.IncrementalEnsemFDet` *after* an update has
finished, and is never mutated afterwards: its count arrays are private
copies and the ranking is precomputed. The service swaps the current
snapshot reference atomically (a single attribute store), so a reader
either sees the complete pre-update table or the complete post-update one
— never a mix of the two.

Scores are the raw MVA vote counts (``0`` for never-voted users), i.e.
exactly ``Detection.user_scores`` of the registry's ensemble adapters, so
a snapshot is bit-comparable against a cold
:meth:`~repro.ensemble.EnsemFDet.fit_window` on the same live graph. A
detector gives every label one node, so each user's score is its own
node's count.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass, field

import numpy as np

from ..ensemble.results import VoteCounts
from ..errors import DetectionError

__all__ = ["ScoreSnapshot"]


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
        Read-only ``label -> votes`` mappings over private array copies.
    user_labels, user_scores:
        Every user of the snapshot graph in node-index order with its
        vote count (0 when never voted); parallel arrays.
    label_order:
        User node indices by ascending label, for ``O(log n)`` lookups.
    ranked_users, ranked_scores:
        All users ordered by ``(-score, node index)`` — the deterministic
        serving ranking behind ``GET /top``.
    stale_members:
        Ensemble members currently carrying stale votes (degraded mode).
    n_users, n_merchants, n_edges:
        Shape of the graph the table is synchronised with.
    watermark:
        The window's append watermark (every edge appended so far).
    captured_at:
        ``time.time()`` at capture (stats/diagnostics only).
    """

    version: int
    n_samples: int
    default_threshold: int
    user_votes: VoteCounts
    merchant_votes: VoteCounts
    user_labels: np.ndarray
    user_scores: np.ndarray
    label_order: np.ndarray
    ranked_users: np.ndarray
    ranked_scores: np.ndarray
    stale_members: tuple[int, ...] = ()
    n_users: int = 0
    n_merchants: int = 0
    n_edges: int = 0
    watermark: int = 0
    captured_at: float = field(default_factory=time.time)

    @classmethod
    def capture(
        cls, detector, version: int, default_threshold: int | None = None
    ) -> "ScoreSnapshot":
        """Snapshot a fitted :class:`~repro.ensemble.IncrementalEnsemFDet`.

        Must be called from the service's single writer thread (or any
        context where no update is running): it reads the detector's
        current vote table — a tally over its graph, in node order — which
        an update replaces. It copies the table's label and count arrays and
        ranks users by ``(-score, node index)``: the index tie-break (the
        :class:`~repro.baselines.DegreeDetector` convention) keeps equal-score
        rankings deterministic and independent of numpy's sort algorithm.
        """
        graph, table = detector.graph, detector.vote_table
        if default_threshold is None:
            default_threshold = max(1, detector.config.n_samples // 4)
        votes, merchants = table.user_votes, table.merchant_votes
        labels = votes.labels.copy()
        order = np.argsort(labels)
        scores = votes.counts.astype(np.float64)
        ranking = np.lexsort((np.arange(labels.size), -scores))
        return cls(
            version=version,
            n_samples=detector.config.n_samples,
            default_threshold=int(default_threshold),
            user_votes=VoteCounts(labels, votes.counts.copy()),
            merchant_votes=VoteCounts(merchants.labels.copy(), merchants.counts.copy()),
            user_labels=labels,
            user_scores=scores,
            label_order=order,
            ranked_users=labels[ranking],
            ranked_scores=scores[ranking],
            stale_members=detector.stale_members,
            n_users=graph.n_users,
            n_merchants=graph.n_merchants,
            n_edges=graph.n_edges,
            watermark=detector.watermark,
        )

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def _user_index(self, label: int) -> int | None:
        """The node index of user ``label`` (``None`` when the graph lacks it)."""
        # bisect keeps the GIL; numpy's searchsorted drops it, and taking it back
        # can wait out the writer thread's switch interval
        order, label = self.label_order, int(label)
        position = bisect.bisect_left(order, label, key=self.user_labels.__getitem__)
        found = position < order.size and self.user_labels[order[position]] == label
        return int(order[position]) if found else None

    def score_of(self, label: int) -> float:
        """Vote count of one user label (0.0 when never voted)."""
        index = self._user_index(label)
        return 0.0 if index is None else float(self.user_scores[index])

    def knows_user(self, label: int) -> bool:
        """Whether ``label`` is a user of the snapshot graph."""
        return self._user_index(label) is not None

    def top(self, k: int) -> list[tuple[int, float]]:
        """The ``k`` most suspicious ``(label, score)`` pairs, ``k`` clamped to ``[0, n_users]``."""
        k = max(0, min(int(k), self.ranked_users.size))
        return list(zip(self.ranked_users[:k].tolist(), self.ranked_scores[:k].tolist()))

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
        sides = (self.user_votes, self.merchant_votes)
        return tuple(votes.accepted(threshold).tolist() for votes in sides)

    def vote_fingerprint(self) -> tuple:
        """Canonical ``(user, merchant)`` vote tuples for bit-compares."""
        return tuple(
            tuple(zip(*(array.tolist() for array in votes.voted())))
            for votes in (self.user_votes, self.merchant_votes)
        )
