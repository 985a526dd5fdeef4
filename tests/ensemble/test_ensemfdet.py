"""Behavioural tests for the EnsemFDet orchestrator (paper Algorithm 2)."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.ensemble import EnsemFDet, EnsemFDetConfig, detect_on_plans
from repro.ensemble.voting import VoteTable
from repro.errors import DetectionError
from repro.fdet import FdetConfig
from repro.parallel import ExecutorMode
from repro.sampling import OneSideNodeSampler, RandomEdgeSampler, Side


def small_config(**overrides):
    defaults = dict(
        sampler=RandomEdgeSampler(0.4),
        n_samples=10,
        fdet=FdetConfig(max_blocks=6),
        seed=42,
    )
    defaults.update(overrides)
    return EnsemFDetConfig(**defaults)


class TestConfig:
    def test_invalid_n_samples(self):
        with pytest.raises(DetectionError):
            EnsemFDetConfig(n_samples=0)

    @pytest.mark.parametrize("executor", ["bogus", "thread"])
    def test_unknown_executor_rejected(self, executor):
        with pytest.raises(DetectionError, match="unknown executor"):
            EnsemFDetConfig(executor=executor)

    def test_repetition_rate(self):
        config = EnsemFDetConfig(sampler=RandomEdgeSampler(0.1), n_samples=80)
        assert config.repetition_rate == pytest.approx(8.0)

    def test_defaults_match_paper(self):
        config = EnsemFDetConfig()
        assert config.n_samples == 80
        assert config.sampler.ratio == 0.1


class TestFit:
    def test_fit_produces_votes(self, toy):
        result = EnsemFDet(small_config()).fit(toy.graph)
        assert result.n_samples == 10
        assert result.vote_table.max_user_votes() >= 1
        assert len(result.sample_detections) == 10

    def test_seeded_fit_reproducible(self, toy):
        a = EnsemFDet(small_config()).fit(toy.graph)
        b = EnsemFDet(small_config()).fit(toy.graph)
        assert a.vote_table.user_votes == b.vote_table.user_votes

    def test_different_seeds_differ(self, toy):
        a = EnsemFDet(small_config(seed=1)).fit(toy.graph)
        b = EnsemFDet(small_config(seed=2)).fit(toy.graph)
        assert a.vote_table.user_votes != b.vote_table.user_votes

    def test_detect_threshold_sweep_monotone(self, toy):
        result = EnsemFDet(small_config()).fit(toy.graph)
        sizes = [result.detect(t).n_users for t in range(1, 11)]
        assert sizes == sorted(sizes, reverse=True)

    def test_sweep_thresholds_default_grid(self, toy):
        result = EnsemFDet(small_config()).fit(toy.graph)
        sweep = result.sweep_thresholds()
        assert [t for t, _ in sweep] == list(range(1, 11))

    def test_fit_detect_convenience(self, toy):
        detection = EnsemFDet(small_config()).fit_detect(toy.graph, threshold=3)
        assert detection.n_users > 0

    def test_votes_bounded_by_n_samples(self, toy):
        result = EnsemFDet(small_config()).fit(toy.graph)
        assert result.vote_table.max_user_votes() <= result.n_samples
        # a graph tally holds a count for every node; only voted users enter the histogram
        histogram = result.vote_table.vote_histogram()
        assert sum(histogram.values()) == len(result.vote_table.user_votes) > 0
        assert min(histogram) >= 1

    def test_recovers_planted_fraud_users(self, toy):
        """End-to-end quality gate on the clean-label toy dataset."""
        config = small_config(n_samples=24, sampler=RandomEdgeSampler(0.4))
        result = EnsemFDet(config).fit(toy.graph)
        truth = set(toy.clean_fraud_labels.tolist())
        best_f1 = 0.0
        for t in range(1, 25):
            detected = set(result.detect(t).user_labels.tolist())
            if not detected:
                continue
            precision = len(detected & truth) / len(detected)
            recall = len(detected & truth) / len(truth)
            if precision + recall:
                best_f1 = max(best_f1, 2 * precision * recall / (precision + recall))
        assert best_f1 >= 0.6

    def test_block_score_series_shape(self, toy):
        result = EnsemFDet(small_config()).fit(toy.graph)
        series = result.block_score_series()
        assert len(series) == result.n_samples
        for scores in series:
            assert np.all(scores >= 0)

    def test_track_appearances(self, toy):
        result = EnsemFDet(small_config(track_appearances=True)).fit(toy.graph)
        assert result.vote_table.user_appearances is not None
        # a node cannot be detected more often than it appeared
        for label, votes in result.vote_table.user_votes.items():
            assert votes <= result.vote_table.user_appearances[label]

    @pytest.mark.parametrize("track_appearances", [False, True])
    def test_sample_labels_are_the_results_own(self, toy, track_appearances):
        """A detection holds no second copy of its member's labels: the
        sample label arrays are the ones its FDET result keeps."""
        result = EnsemFDet(small_config(track_appearances=track_appearances)).fit(toy.graph)
        for detection in result.sample_detections:
            assert detection.sample_users is detection.result.user_labels
            assert detection.sample_merchants is detection.result.merchant_labels

    def test_appearances_tally_each_results_own_labels(self, toy):
        result = EnsemFDet(small_config(track_appearances=True)).fit(toy.graph)
        detections = result.sample_detections
        expected = VoteTable.from_detections(
            [d.result.user_labels for d in detections],
            [d.result.merchant_labels for d in detections],
        )
        assert dict(result.vote_table.user_appearances) == dict(expected.user_votes)
        assert dict(result.vote_table.merchant_appearances) == dict(expected.merchant_votes)

    def test_timings_populated(self, toy):
        result = EnsemFDet(small_config()).fit(toy.graph)
        assert result.sampling_seconds >= 0
        assert result.detection_seconds > 0
        assert result.total_seconds == pytest.approx(
            result.sampling_seconds + result.detection_seconds
        )

    def test_ons_sampler_variant(self, toy):
        config = small_config(sampler=OneSideNodeSampler(0.4, Side.MERCHANT))
        result = EnsemFDet(config).fit(toy.graph)
        assert result.vote_table.max_user_votes() >= 1


class TestExecutors:
    @pytest.mark.parametrize("mode", ExecutorMode.ALL)
    def test_executors_agree(self, toy, mode):
        config = small_config(executor=mode, n_samples=6)
        result = EnsemFDet(config).fit(toy.graph)
        serial = EnsemFDet(small_config(executor=ExecutorMode.SERIAL, n_samples=6)).fit(toy.graph)
        assert result.vote_table.user_votes == serial.vote_table.user_votes

    def test_detect_on_plans_order_preserved(self, toy):
        plans = RandomEdgeSampler(0.3).plan_many(toy.graph, 4, rng=0)
        config = FdetConfig(max_blocks=4)
        serial = detect_on_plans(toy.graph, plans, config, mode=ExecutorMode.SERIAL)
        pooled = detect_on_plans(
            toy.graph, plans, config, mode=ExecutorMode.PROCESS, n_workers=2
        )
        for a, b in zip(serial, pooled):
            assert a.result.k_hat == b.result.k_hat
            assert np.array_equal(a.result.detected_users(), b.result.detected_users())

    def test_chunked_process_matches_serial(self, toy):
        plans = RandomEdgeSampler(0.3).plan_many(toy.graph, 7, rng=1)
        config = FdetConfig(max_blocks=4)
        serial = detect_on_plans(toy.graph, plans, config, mode=ExecutorMode.SERIAL)
        chunked = detect_on_plans(
            toy.graph, plans, config, mode=ExecutorMode.PROCESS, n_workers=3
        )
        assert len(chunked) == len(serial)
        for a, b in zip(serial, chunked):
            assert np.array_equal(a.sample_users, b.sample_users)
            assert np.array_equal(a.result.detected_users(), b.result.detected_users())

    def test_engines_match(self, toy):
        """The engine is the config's: the fan-out takes no override."""
        plans = RandomEdgeSampler(0.3).plan_many(toy.graph, 3, rng=2)
        config = FdetConfig(max_blocks=4, engine="fast")
        fast = detect_on_plans(toy.graph, plans, config, mode=ExecutorMode.SERIAL)
        reference = detect_on_plans(
            toy.graph, plans, replace(config, engine="reference"), mode=ExecutorMode.SERIAL
        )
        with pytest.raises(TypeError):
            detect_on_plans(toy.graph, plans, config, engine="reference")
        for a, b in zip(fast, reference):
            assert np.array_equal(a.result.detected_users(), b.result.detected_users())
            assert np.array_equal(a.result.detected_merchants(), b.result.detected_merchants())
