"""Tests for the density-weighted (soft) vote extension."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ensemble import (
    EnsemFDet,
    EnsemFDetConfig,
    SoftVoteTable,
    soft_threshold_sweep,
    soft_votes_from_detections,
)
from repro.ensemble.runner import SampleDetection
from repro.errors import AggregationError
from repro.fdet import FdetConfig, FdetResult
from repro.sampling import RandomEdgeSampler


def _fake_detection(blocks: list[tuple[float, list[int], list[int]]]) -> SampleDetection:
    """A SampleDetection holding hand-built blocks of (density, users, merchants).

    The member's nodes are the blocks' labels; each block becomes the packed
    node bitset an FDET result stores.
    """
    users = np.unique(np.array([u for _, us, _ in blocks for u in us], dtype=np.int64))
    merchants = np.unique(np.array([m for _, _, ms in blocks for m in ms], dtype=np.int64))
    rows = [
        np.packbits(np.concatenate([np.isin(users, us), np.isin(merchants, ms)]), bitorder="little")
        for _, us, ms in blocks
    ]
    row_bytes = (users.size + merchants.size + 7) // 8
    result = FdetResult(
        user_labels=users,
        merchant_labels=merchants,
        block_rows=np.array(rows, dtype=np.uint8).reshape(len(rows), row_bytes),
        densities=np.array([density for density, _, _ in blocks], dtype=np.float64),
        edge_counts=np.array([len(us) * len(ms) for _, us, ms in blocks], dtype=np.int64),
        k_hat=len(blocks),
    )
    return SampleDetection(result=result)


@pytest.fixture(scope="module")
def fitted(toy):
    config = EnsemFDetConfig(
        sampler=RandomEdgeSampler(0.4),
        n_samples=12,
        fdet=FdetConfig(max_blocks=6),
        seed=0,
        executor="serial",
    )
    return EnsemFDet(config).fit(toy.graph)


class TestSoftVotes:
    def test_scores_accumulate(self, fitted):
        table = soft_votes_from_detections(list(fitted.sample_detections))
        assert table.n_samples == 12
        assert table.max_user_score() > 0

    def test_normalised_scores_bounded_by_n_samples(self, fitted):
        table = soft_votes_from_detections(
            list(fitted.sample_detections), normalize_per_sample=True
        )
        # each sample contributes at most ~1.0 (the first block's own weight)
        assert table.max_user_score() <= fitted.n_samples + 1e-9

    def test_detect_threshold_filters(self, fitted):
        table = soft_votes_from_detections(list(fitted.sample_detections))
        top = table.max_user_score()
        strict = table.detect(top)
        loose = table.detect(top / 10)
        assert strict.n_users <= loose.n_users

    def test_invalid_threshold(self, fitted):
        table = soft_votes_from_detections(list(fitted.sample_detections))
        with pytest.raises(AggregationError):
            table.detect(0.0)

    def test_sweep_monotone(self, fitted):
        table = soft_votes_from_detections(list(fitted.sample_detections))
        sweep = soft_threshold_sweep(table, n_points=20)
        assert sweep, "sweep should produce points"
        thresholds = [t for t, _ in sweep]
        sizes = [d.n_users for _, d in sweep]
        assert thresholds == sorted(thresholds)
        assert sizes == sorted(sizes, reverse=True)

    def test_soft_votes_rank_fraud_high(self, fitted, toy):
        """Planted fraud users accumulate more density mass than normals."""
        table = soft_votes_from_detections(list(fitted.sample_detections))
        truth = set(toy.clean_fraud_labels.tolist())
        fraud_scores = [s for label, s in table.user_scores.items() if label in truth]
        normal_scores = [s for label, s in table.user_scores.items() if label not in truth]
        assert fraud_scores, "fraud users must receive soft votes"
        if normal_scores:
            assert np.mean(fraud_scores) > np.mean(normal_scores)

    def test_empty_detections(self):
        table = soft_votes_from_detections([])
        assert table.max_user_score() == 0.0
        assert soft_threshold_sweep(table) == []


class TestSoftVoteEdgeCases:
    """Hand-built vote tables: the corners the fitted-ensemble tests miss."""

    def test_empty_table_detects_nothing(self):
        table = SoftVoteTable(n_samples=0, user_scores={}, merchant_scores={})
        detection = table.detect(1.0)
        assert detection.n_users == 0
        assert detection.n_merchants == 0
        assert table.max_user_score() == 0.0
        assert soft_threshold_sweep(table) == []

    def test_all_abstain_members(self):
        """Members whose FDET kept zero blocks contribute nothing — not crashes."""
        detections = [_fake_detection([]) for _ in range(5)]
        table = soft_votes_from_detections(detections)
        assert table.n_samples == 5
        assert table.user_scores == {}
        assert table.merchant_scores == {}
        assert table.detect(0.5).n_users == 0
        assert soft_threshold_sweep(table) == []

    def test_mixed_abstain_and_voting_members(self):
        detections = [
            _fake_detection([]),
            _fake_detection([(0.8, [1, 2], [10])]),
            _fake_detection([]),
        ]
        table = soft_votes_from_detections(detections)
        assert table.n_samples == 3
        # the single voting member contributes normalized weight 1.0
        assert table.user_scores == {1: 1.0, 2: 1.0}
        assert table.merchant_scores == {10: 1.0}

    def test_threshold_boundary_is_inclusive(self):
        """A score exactly equal to the threshold is detected (>=, not >)."""
        table = SoftVoteTable(
            n_samples=2,
            user_scores={7: 1.5, 8: 1.5 - 1e-9},
            merchant_scores={3: 1.5},
        )
        detection = table.detect(1.5)
        assert detection.user_labels.tolist() == [7]
        assert detection.merchant_labels.tolist() == [3]
        # nudging the threshold past the score drops the boundary node
        assert table.detect(1.5 + 1e-9).n_users == 0

    @pytest.mark.parametrize("threshold", [0.0, -1.0])
    def test_non_positive_threshold_rejected(self, threshold):
        table = SoftVoteTable(n_samples=1, user_scores={1: 1.0}, merchant_scores={})
        with pytest.raises(AggregationError):
            table.detect(threshold)

    def test_zero_density_first_block_does_not_divide(self):
        """A zero-density lead block falls back to unnormalised weights."""
        detections = [_fake_detection([(0.0, [1], [2]), (0.25, [3], [4])])]
        table = soft_votes_from_detections(detections, normalize_per_sample=True)
        assert table.user_scores[1] == 0.0
        assert table.user_scores[3] == pytest.approx(0.25)

    def test_unnormalised_scores_accumulate_raw_density(self):
        detections = [
            _fake_detection([(0.5, [1], [2])]),
            _fake_detection([(0.25, [1], [2])]),
        ]
        table = soft_votes_from_detections(detections, normalize_per_sample=False)
        assert table.user_scores[1] == pytest.approx(0.75)
        assert table.merchant_scores[2] == pytest.approx(0.75)
