"""Vote aggregation (paper Definition 4: Majority Voting Aggregation).

Each of the ``N`` per-sample FDET runs nominates suspicious user/merchant
labels; :class:`VoteTable` tallies how often each label was nominated
(:func:`tally_votes` builds it from member detections for every fit,
sharded fit and incremental update), and the aggregators turn tallies into
final detections:

* :func:`majority_vote` — the paper's MVA: accept when votes ≥ ``T``.
* :func:`normalized_majority_vote` — ablation variant that divides a node's
  votes by the number of samples the node actually *appeared in* (a node can
  only be nominated when sampling put it in the subgraph; this corrects the
  bias against rarely-sampled nodes, at the cost of amplifying noise from
  nodes seen once).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..errors import AggregationError
from ..fdet import batched as _batched
from ..graph import BipartiteGraph
from .results import DetectionResult

__all__ = [
    "VoteTable",
    "majority_vote",
    "normalized_majority_vote",
    "tally_votes",
    "vote_scores",
]


def _tally(label_sets: Sequence[Iterable[int]]) -> Counter[int]:
    counter: Counter[int] = Counter()
    for labels in label_sets:
        counter.update(int(label) for label in labels)
    return counter


@dataclass
class VoteTable:
    """Per-label vote counts from ``N`` ensemble members.

    Attributes
    ----------
    n_samples:
        The ensemble size ``N`` (upper bound for any count).
    user_votes, merchant_votes:
        ``label -> number of samples that detected it``.
    user_appearances, merchant_appearances:
        Optional ``label -> number of samples that contained it`` maps,
        needed only by the normalised aggregator.
    """

    n_samples: int
    user_votes: Counter[int] = field(default_factory=Counter)
    merchant_votes: Counter[int] = field(default_factory=Counter)
    user_appearances: Counter[int] | None = None
    merchant_appearances: Counter[int] | None = None

    @classmethod
    def from_detections(
        cls,
        user_label_sets: Sequence[Iterable[int]],
        merchant_label_sets: Sequence[Iterable[int]],
    ) -> "VoteTable":
        """Tally one detection (set of labels) per ensemble member."""
        if len(user_label_sets) != len(merchant_label_sets):
            raise AggregationError(
                "user and merchant detection lists must have the same length "
                f"({len(user_label_sets)} vs {len(merchant_label_sets)})"
            )
        return cls(
            n_samples=len(user_label_sets),
            user_votes=_tally(user_label_sets),
            merchant_votes=_tally(merchant_label_sets),
        )

    def attach_appearances(
        self,
        user_label_sets: Sequence[Iterable[int]],
        merchant_label_sets: Sequence[Iterable[int]],
    ) -> None:
        """Record which labels each sampled subgraph *contained*."""
        if len(user_label_sets) != self.n_samples or len(merchant_label_sets) != self.n_samples:
            raise AggregationError("appearance lists must match n_samples")
        self.user_appearances = _tally(user_label_sets)
        self.merchant_appearances = _tally(merchant_label_sets)

    def max_user_votes(self) -> int:
        """Highest vote count any user received (0 when nothing was voted)."""
        return max(self.user_votes.values(), default=0)

    def vote_histogram(self) -> dict[int, int]:
        """``votes -> number of users with that many votes`` (diagnostics)."""
        histogram: Counter[int] = Counter(self.user_votes.values())
        return dict(sorted(histogram.items()))


def _detected_labels(detection, graph: BipartiteGraph) -> tuple[np.ndarray, np.ndarray]:
    """One member's detected ``(user, merchant)`` labels, for the label tally."""
    users = detection.detected_user_indices
    merchants = detection.detected_merchant_indices
    if users is None or merchants is None:
        return detection.result.detected_users(), detection.result.detected_merchants()
    return np.unique(graph.user_labels[users]), np.unique(graph.merchant_labels[merchants])


def tally_votes(
    detections: Sequence, graph: BipartiteGraph, track_appearances: bool = False
) -> VoteTable:
    """The vote table of ``detections``, one per ensemble member.

    Each detection carries parent node-index arrays
    (``detected_user_indices`` / ``detected_merchant_indices``) or, when
    those are ``None``, an FDET ``result`` naming its detected labels; with
    ``track_appearances`` it also carries ``sample_users`` /
    ``sample_merchants``. The native accumulator
    (:func:`repro.fdet.batched.vote_counters`) tallies the node indices;
    without the kernel, when a detection has no index arrays, or when two
    voted nodes share a label, :meth:`VoteTable.from_detections` tallies
    the labels instead. Both give the same table.
    """
    counters = _batched.vote_counters(detections, graph)
    if counters is not None:
        table = VoteTable(
            n_samples=len(detections), user_votes=counters[0], merchant_votes=counters[1]
        )
    else:
        labels = [_detected_labels(d, graph) for d in detections]
        table = VoteTable.from_detections(
            [users.tolist() for users, _ in labels],
            [merchants.tolist() for _, merchants in labels],
        )
    if track_appearances:
        table.attach_appearances(
            [d.sample_users for d in detections],
            [d.sample_merchants for d in detections],
        )
    return table


def vote_scores(labels: np.ndarray, votes) -> np.ndarray:
    """Per-node vote counts in node-index order (0 for never-voted nodes).

    Vectorised via a sorted-key lookup — the voted set is usually much
    smaller than the node set, and a Python loop over every label would
    dominate small fits.
    """
    scores = np.zeros(labels.size, dtype=np.float64)
    if not votes:
        return scores
    keys = np.fromiter(votes.keys(), dtype=np.int64, count=len(votes))
    values = np.fromiter(votes.values(), dtype=np.float64, count=len(votes))
    order = np.argsort(keys)
    keys, values = keys[order], values[order]
    positions = np.searchsorted(keys, labels)
    positions = np.clip(positions, 0, keys.size - 1)
    hits = keys[positions] == labels
    scores[hits] = values[positions[hits]]
    return scores


def _accepted(votes: Counter[int], threshold: int) -> np.ndarray:
    labels = [label for label, count in votes.items() if count >= threshold]
    return np.array(sorted(labels), dtype=np.int64)


def majority_vote(table: VoteTable, threshold: int) -> DetectionResult:
    """The paper's MVA: accept node ``u`` iff ``Σ_i h_i(u) ≥ T``."""
    if threshold < 1:
        raise AggregationError(f"voting threshold T must be >= 1, got {threshold}")
    return DetectionResult(
        user_labels=_accepted(table.user_votes, threshold),
        merchant_labels=_accepted(table.merchant_votes, threshold),
    )


def normalized_majority_vote(
    table: VoteTable, fraction: float, min_appearances: int = 1
) -> DetectionResult:
    """Accept when ``votes / appearances ≥ fraction``.

    Requires appearance counts (see :meth:`VoteTable.attach_appearances`).
    ``min_appearances`` suppresses nodes sampled too rarely for their vote
    fraction to mean anything.
    """
    if not 0.0 < fraction <= 1.0:
        raise AggregationError(f"fraction must be in (0, 1], got {fraction}")
    if table.user_appearances is None or table.merchant_appearances is None:
        raise AggregationError(
            "normalized vote needs appearance counts; call attach_appearances() first"
        )

    def accept(votes: Counter[int], appearances: Counter[int]) -> np.ndarray:
        labels = [
            label
            for label, count in votes.items()
            if appearances[label] >= min_appearances
            and count / appearances[label] >= fraction
        ]
        return np.array(sorted(labels), dtype=np.int64)

    return DetectionResult(
        user_labels=accept(table.user_votes, table.user_appearances),
        merchant_labels=accept(table.merchant_votes, table.merchant_appearances),
    )
