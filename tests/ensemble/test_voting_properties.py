"""Property-based tests for vote aggregation invariants."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ensemble import VoteTable, majority_vote, normalized_majority_vote


@st.composite
def detection_rounds(draw):
    """Random per-sample detection label sets."""
    n_samples = draw(st.integers(1, 12))
    label_pool = st.integers(0, 30)
    return [
        draw(st.lists(label_pool, max_size=10, unique=True)) for _ in range(n_samples)
    ]


@given(detection_rounds())
@settings(max_examples=80, deadline=None)
def test_threshold_one_equals_union(rounds):
    table = VoteTable.from_detections(rounds, [[] for _ in rounds])
    detected = set(majority_vote(table, 1).user_labels.tolist())
    union = set()
    for labels in rounds:
        union |= set(labels)
    assert detected == union


@given(detection_rounds())
@settings(max_examples=80, deadline=None)
def test_detection_monotone_decreasing_in_threshold(rounds):
    table = VoteTable.from_detections(rounds, [[] for _ in rounds])
    previous = None
    for threshold in range(1, len(rounds) + 2):
        current = set(majority_vote(table, threshold).user_labels.tolist())
        if previous is not None:
            assert current <= previous
        previous = current


@given(detection_rounds())
@settings(max_examples=80, deadline=None)
def test_votes_never_exceed_n_samples(rounds):
    table = VoteTable.from_detections(rounds, [[] for _ in rounds])
    assert table.max_user_votes() <= table.n_samples
    # threshold above N always yields nothing
    assert majority_vote(table, table.n_samples + 1).n_users == 0


@given(detection_rounds())
@settings(max_examples=60, deadline=None)
def test_vote_histogram_accounts_for_every_voted_label(rounds):
    table = VoteTable.from_detections(rounds, [[] for _ in rounds])
    histogram = table.vote_histogram()
    assert sum(histogram.values()) == len(table.user_votes)
    assert all(1 <= votes <= table.n_samples for votes in histogram)


@given(detection_rounds(), st.permutations(range(12)))
@settings(max_examples=40, deadline=None)
def test_vote_counts_order_invariant(rounds, order):
    """Shuffling the sample order must not change any tally."""
    table = VoteTable.from_detections(rounds, [[] for _ in rounds])
    shuffled = [rounds[i % len(rounds)] for i in order[: len(rounds)]]
    # build a permutation of the actual rounds (order trimmed to length)
    if sorted(map(tuple, map(sorted, shuffled))) != sorted(map(tuple, map(sorted, rounds))):
        return  # the trimmed permutation did not cover all rounds; skip
    reshuffled = VoteTable.from_detections(shuffled, [[] for _ in shuffled])
    assert reshuffled.user_votes == table.user_votes


_INT64 = np.iinfo(np.int64)
#: small labels (negatives included) collide often; the int64 ends sit next to them
_labels = st.one_of(
    st.integers(-20, 20),
    st.sampled_from([_INT64.min, _INT64.min + 1, _INT64.max - 1, _INT64.max]),
)


@st.composite
def label_lists(draw):
    """Per-member label lists: repeats inside a member and empty members allowed."""
    n_samples = draw(st.integers(1, 9))
    rounds = st.lists(st.lists(_labels, max_size=10), min_size=n_samples, max_size=n_samples)
    return draw(rounds), draw(rounds), draw(rounds)


def _reference(rounds) -> Counter:
    tally: Counter = Counter()
    for labels in rounds:
        tally.update(labels)
    return tally


@given(label_lists())
@settings(max_examples=150, deadline=None)
def test_array_table_matches_counter_reference(lists):
    users, merchants, seen = lists
    table = VoteTable.from_detections(users, merchants)
    table.attach_appearances(seen, [[] for _ in seen])
    user_ref, merchant_ref, seen_ref = map(_reference, (users, merchants, seen))
    assert dict(table.user_votes) == dict(user_ref)
    assert dict(table.merchant_votes) == dict(merchant_ref)
    assert table.user_votes == user_ref and table.merchant_votes == merchant_ref
    assert len(table.user_votes) == len(user_ref)
    for threshold in range(1, len(users) + 2):
        result = majority_vote(table, threshold)
        for labels, ref in ((result.user_labels, user_ref), (result.merchant_labels, merchant_ref)):
            assert labels.tolist() == sorted(k for k, v in ref.items() if v >= threshold)
    for fraction in (0.25, 0.5, 1.0):
        for min_appearances in (1, 2):
            result = normalized_majority_vote(table, fraction, min_appearances)
            assert result.user_labels.tolist() == sorted(
                k
                for k, v in user_ref.items()
                if seen_ref[k] >= min_appearances and v / seen_ref[k] >= fraction
            )
    assert table.max_user_votes() == max(user_ref.values(), default=0)
    assert table.vote_histogram() == dict(sorted(Counter(user_ref.values()).items()))


@given(label_lists(), _labels)
@settings(max_examples=80, deadline=None)
def test_vote_mappings_are_read_only_and_read_missing_as_zero(lists, label):
    users, merchants, _ = lists
    table = VoteTable.from_detections(users, merchants)
    with pytest.raises(TypeError):
        table.user_votes[label] = 1
    for missing in (label, _INT64.max + 1, _INT64.min - 1):
        if missing in _reference(users):
            continue
        assert table.user_votes[missing] == 0
        assert missing not in table.user_votes
        assert table.user_votes.get(missing) is None
    assert dict(table.user_votes) == dict(_reference(users))
