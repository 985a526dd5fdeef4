"""Unit tests for vote tallying and aggregation (paper Definition 4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ensemble import (
    VoteTable,
    majority_vote,
    normalized_majority_vote,
)
from repro.errors import AggregationError


def table_from(user_sets, merchant_sets=None):
    merchant_sets = merchant_sets if merchant_sets is not None else [[] for _ in user_sets]
    return VoteTable.from_detections(user_sets, merchant_sets)


class TestVoteTable:
    def test_tally_counts(self):
        table = table_from([[1, 2], [2, 3], [2]])
        assert table.n_samples == 3
        assert table.user_votes[2] == 3
        assert table.user_votes[1] == 1
        assert table.user_votes[99] == 0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(AggregationError):
            VoteTable.from_detections([[1]], [[], []])

    def test_max_user_votes(self):
        table = table_from([[1], [1], [2]])
        assert table.max_user_votes() == 2
        assert table_from([[], []]).max_user_votes() == 0

    def test_vote_histogram(self):
        table = table_from([[1, 2], [1], [1]])
        assert table.vote_histogram() == {1: 1, 3: 1}

    def test_merchant_votes_tallied(self):
        table = VoteTable.from_detections([[], []], [[7], [7]])
        assert table.merchant_votes[7] == 2


class TestMajorityVote:
    def test_threshold_filters(self):
        table = table_from([[1, 2], [2, 3], [2, 3]])
        result = majority_vote(table, threshold=2)
        assert result.user_labels.tolist() == [2, 3]

    def test_threshold_one_is_union(self):
        table = table_from([[1], [5], [3]])
        assert majority_vote(table, 1).user_labels.tolist() == [1, 3, 5]

    def test_threshold_above_all_votes_empty(self):
        table = table_from([[1], [1]])
        result = majority_vote(table, 3)
        assert result.n_users == 0

    def test_invalid_threshold(self):
        with pytest.raises(AggregationError):
            majority_vote(table_from([[1]]), 0)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(0)
        sets = [rng.choice(50, size=10, replace=False).tolist() for _ in range(20)]
        table = table_from(sets)
        previous = None
        for threshold in range(1, 21):
            detected = set(majority_vote(table, threshold).user_labels.tolist())
            if previous is not None:
                assert detected <= previous
            previous = detected

    def test_labels_sorted(self):
        table = table_from([[9, 1, 5]])
        assert majority_vote(table, 1).user_labels.tolist() == [1, 5, 9]


class TestVoteEdgeCases:
    """Hand-built vote tables: no members, abstaining members, exact thresholds."""

    def test_empty_table_detects_nothing(self):
        table = table_from([])
        assert table.n_samples == 0
        assert table.max_user_votes() == 0
        assert table.vote_histogram() == {}
        result = majority_vote(table, 1)
        assert result.n_users == 0
        assert result.n_merchants == 0

    def test_all_abstain_members(self):
        """Members whose FDET kept zero blocks contribute nothing, not crashes."""
        table = table_from([[] for _ in range(5)])
        assert table.n_samples == 5
        assert len(table.user_votes) == 0
        assert len(table.merchant_votes) == 0
        assert majority_vote(table, 1).n_users == 0

    def test_mixed_abstain_and_voting_members(self):
        table = table_from([[], [1, 2], []], [[], [10], []])
        assert table.n_samples == 3
        assert dict(table.user_votes) == {1: 1, 2: 1}
        assert dict(table.merchant_votes) == {10: 1}
        result = majority_vote(table, 1)
        assert result.user_labels.tolist() == [1, 2]
        assert result.merchant_labels.tolist() == [10]

    def test_threshold_boundary_is_inclusive(self):
        """A count exactly equal to ``T`` is detected (>=, not >)."""
        table = table_from([[7, 8], [7], [7, 8]], [[3], [3], [4]])
        result = majority_vote(table, 2)
        assert result.user_labels.tolist() == [7, 8]
        assert result.merchant_labels.tolist() == [3]
        # one past the boundary count drops the node
        assert majority_vote(table, 3).user_labels.tolist() == [7]

    def test_negative_threshold_rejected(self):
        with pytest.raises(AggregationError):
            majority_vote(table_from([[1]]), -1)

    def test_normalized_fraction_boundary_is_inclusive(self):
        # node 1: 2 votes in 4 appearances; node 2: 1 vote in 4
        table = table_from([[1, 2], [1], [], []])
        table.attach_appearances([[1, 2]] * 4, [[]] * 4)
        assert normalized_majority_vote(table, 0.5).user_labels.tolist() == [1]
        assert normalized_majority_vote(table, 0.25).user_labels.tolist() == [1, 2]

    def test_normalized_vote_covers_merchants(self):
        table = VoteTable.from_detections([[], []], [[5, 6], [5]])
        table.attach_appearances([[], []], [[5, 6], [5, 6]])
        assert normalized_majority_vote(table, 1.0).merchant_labels.tolist() == [5]

    @pytest.mark.parametrize("fraction", [-0.5, 1.5])
    def test_fraction_outside_unit_interval_rejected(self, fraction):
        table = table_from([[1]])
        table.attach_appearances([[1]], [[]])
        with pytest.raises(AggregationError):
            normalized_majority_vote(table, fraction)


class TestNormalizedVote:
    def test_requires_appearances(self):
        table = table_from([[1]])
        with pytest.raises(AggregationError, match="appearance"):
            normalized_majority_vote(table, 0.5)

    def test_normalisation_rescues_rarely_sampled_nodes(self):
        # node 1: sampled twice, detected twice (ratio 1.0, votes 2)
        # node 2: sampled 4x, detected 2x  (ratio 0.5, votes 2)
        table = VoteTable.from_detections(
            [[1, 2], [1, 2], [], []], [[], [], [], []]
        )
        table.attach_appearances(
            [[1, 2], [1, 2], [2], [2]], [[], [], [], []]
        )
        result = normalized_majority_vote(table, fraction=0.9)
        assert result.user_labels.tolist() == [1]

    def test_min_appearances_suppresses_noise(self):
        table = VoteTable.from_detections([[7], []], [[], []])
        table.attach_appearances([[7], []], [[], []])
        accepted = normalized_majority_vote(table, fraction=0.5, min_appearances=2)
        assert accepted.n_users == 0

    def test_invalid_fraction(self):
        table = table_from([[1]])
        table.attach_appearances([[1]], [[]])
        with pytest.raises(AggregationError):
            normalized_majority_vote(table, 0.0)

    def test_appearance_length_mismatch(self):
        table = table_from([[1]])
        with pytest.raises(AggregationError):
            table.attach_appearances([[1], [2]], [[], []])


class TestDetectionResult:
    def test_empty(self):
        from repro.ensemble import DetectionResult

        empty = DetectionResult.empty()
        assert empty.n_users == 0
        assert empty.user_set() == set()

    def test_sets(self):
        from repro.ensemble import DetectionResult

        result = DetectionResult(
            user_labels=np.array([1, 2]), merchant_labels=np.array([5])
        )
        assert result.user_set() == {1, 2}
        assert result.merchant_set() == {5}
        assert result.n_merchants == 1
