"""Vote aggregation (paper Definition 4: Majority Voting Aggregation).

Each of the ``N`` per-sample FDET runs nominates suspicious user/merchant
nodes; :class:`VoteTable` counts how often each was nominated
(:func:`tally_votes` builds it from member detections for every fit,
sharded fit and incremental update), and the aggregators turn the counts
into final detections:

* :func:`majority_vote` — the paper's MVA: accept when votes ≥ ``T``.
* :func:`normalized_majority_vote` — ablation variant that divides a node's
  votes by the number of samples the node actually *appeared in* (a node can
  only be nominated when sampling put it in the subgraph; this corrects the
  bias against rarely-sampled nodes, at the cost of amplifying noise from
  nodes seen once).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..errors import AggregationError, DetectionError
from ..fdet import batched as _batched
from ..graph import BipartiteGraph
from .results import DetectionResult, VoteCounts

__all__ = [
    "VoteTable",
    "counts_table",
    "majority_vote",
    "normalized_majority_vote",
    "tally_votes",
    "vote_scores",
]

_EMPTY = np.empty(0, dtype=np.int64)


@dataclass
class VoteTable:
    """Per-label vote counts from ``N`` ensemble members.

    Attributes
    ----------
    n_samples:
        The ensemble size ``N`` (upper bound for any count).
    user_votes, merchant_votes:
        ``label -> number of samples that detected it``; a graph tally keeps
        the graph's node order, :meth:`from_detections` sorted unique labels.
    user_appearances, merchant_appearances:
        Optional ``label -> number of samples that contained it`` counts,
        needed only by the normalised aggregator.
    """

    n_samples: int
    user_votes: VoteCounts
    merchant_votes: VoteCounts
    user_appearances: VoteCounts | None = None
    merchant_appearances: VoteCounts | None = None

    @classmethod
    def from_detections(
        cls,
        user_label_sets: Sequence[Iterable[int]],
        merchant_label_sets: Sequence[Iterable[int]],
    ) -> "VoteTable":
        """Tally one detection (collection of labels) per ensemble member."""
        if len(user_label_sets) != len(merchant_label_sets):
            raise AggregationError(
                "user and merchant detection lists must have the same length "
                f"({len(user_label_sets)} vs {len(merchant_label_sets)})"
            )
        return cls(
            n_samples=len(user_label_sets),
            user_votes=VoteCounts.tally(user_label_sets),
            merchant_votes=VoteCounts.tally(merchant_label_sets),
        )

    def attach_appearances(
        self,
        user_label_sets: Sequence[Iterable[int]],
        merchant_label_sets: Sequence[Iterable[int]],
    ) -> None:
        """Record which labels each sampled subgraph *contained*."""
        if len(user_label_sets) != self.n_samples or len(merchant_label_sets) != self.n_samples:
            raise AggregationError("appearance lists must match n_samples")
        self.user_appearances = VoteCounts.tally(user_label_sets)
        self.merchant_appearances = VoteCounts.tally(merchant_label_sets)

    def max_user_votes(self) -> int:
        """Highest vote count any user received (0 when nothing was voted)."""
        return int(self.user_votes.counts.max(initial=0))

    def vote_histogram(self) -> dict[int, int]:
        """``votes -> number of users with that many votes`` (diagnostics)."""
        counts = self.user_votes.counts
        votes, users = np.unique(counts[counts > 0], return_counts=True)
        return dict(zip(votes.tolist(), users.tolist()))


def node_indices(node_labels: np.ndarray, label_sets: Sequence[np.ndarray]) -> list[np.ndarray]:
    """The node index of every label in each of ``label_sets``; one sort serves all.

    Saved detection states store labels; this maps them back to node
    indices when a detector resumes. A label shared by several nodes maps to
    the first of them, which the label-keyed vote table cannot tell apart.
    """
    if not label_sets:
        return []
    labels = np.concatenate([_EMPTY, *label_sets])
    order = np.argsort(node_labels, kind="stable")
    positions = np.searchsorted(node_labels, labels, sorter=order)
    indices = order[np.minimum(positions, order.size - 1)]
    if not np.array_equal(node_labels[indices], labels):
        raise DetectionError("a member detection names a node the graph does not have")
    return np.split(indices, np.cumsum([s.size for s in label_sets])[:-1])


def tally_votes(
    detections: Sequence, graph: BipartiteGraph, track_appearances: bool = False
) -> VoteTable:
    """The vote table of ``detections``, one per ensemble member, in ``graph``'s node order.

    Every detection carries the parent node indices it detected
    (``detected_user_indices`` / ``detected_merchant_indices``), which
    :func:`repro.fdet.batched.vote_counters` counts. With
    ``track_appearances`` the ``sample_users`` / ``sample_merchants`` label
    arrays are tallied too.
    """
    user_counts, merchant_counts = _batched.vote_counters(
        [d.detected_user_indices for d in detections],
        [d.detected_merchant_indices for d in detections],
        graph,
    )
    return counts_table(graph, user_counts, merchant_counts, detections, track_appearances)


def counts_table(
    graph: BipartiteGraph,
    user_counts: np.ndarray,
    merchant_counts: np.ndarray,
    members: Sequence,
    track_appearances: bool = False,
) -> VoteTable:
    """The vote table of per-node counts over ``graph``, one entry of ``members`` per member.

    With ``track_appearances`` the members' ``sample_users`` /
    ``sample_merchants`` label arrays are tallied too.
    """
    table = VoteTable(
        n_samples=len(members),
        user_votes=VoteCounts(np.asarray(graph.user_labels, np.int64), user_counts),
        merchant_votes=VoteCounts(np.asarray(graph.merchant_labels, np.int64), merchant_counts),
    )
    if track_appearances:
        table.attach_appearances(
            [m.sample_users for m in members],
            [m.sample_merchants for m in members],
        )
    return table


def vote_scores(labels: np.ndarray, votes: VoteCounts) -> np.ndarray:
    """The vote count of each of ``labels`` as float64 (0 for never-voted labels)."""
    keys, values = votes.voted()
    scores = np.zeros(labels.size, dtype=np.float64)
    if keys.size:
        positions = np.minimum(np.searchsorted(keys, labels), keys.size - 1)
        hits = keys[positions] == labels
        scores[hits] = values[positions[hits]]
    return scores


def majority_vote(table: VoteTable, threshold: int) -> DetectionResult:
    """The paper's MVA: accept node ``u`` iff ``Σ_i h_i(u) ≥ T``."""
    if threshold < 1:
        raise AggregationError(f"voting threshold T must be >= 1, got {threshold}")
    return DetectionResult(
        user_labels=table.user_votes.accepted(threshold),
        merchant_labels=table.merchant_votes.accepted(threshold),
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

    def accept(votes: VoteCounts, appearances: VoteCounts) -> np.ndarray:
        labels, counts = votes.voted()
        seen = vote_scores(labels, appearances)
        with np.errstate(divide="ignore", invalid="ignore"):
            return labels[(seen >= min_appearances) & (counts / seen >= fraction)]

    return DetectionResult(
        user_labels=accept(table.user_votes, table.user_appearances),
        merchant_labels=accept(table.merchant_votes, table.merchant_appearances),
    )
