"""Tests for run-to-run stability measures."""

from __future__ import annotations

import pytest

from repro.ensemble import EnsemFDetConfig
from repro.fdet import FdetConfig
from repro.metrics import detection_stability, f1_spread, jaccard, seed_sweep_stability
from repro.sampling import RandomEdgeSampler


class TestJaccard:
    def test_identical(self):
        assert jaccard({1, 2}, [1, 2]) == 1.0

    def test_disjoint(self):
        assert jaccard({1}, {2}) == 0.0

    def test_partial(self):
        assert jaccard({1, 2, 3}, {2, 3, 4}) == pytest.approx(0.5)

    def test_both_empty(self):
        assert jaccard([], []) == 1.0

    def test_one_empty(self):
        assert jaccard({1}, []) == 0.0


class TestDetectionStability:
    def test_single_run(self):
        assert detection_stability([{1, 2}]) == 1.0

    def test_identical_runs(self):
        assert detection_stability([{1, 2}, {1, 2}, {1, 2}]) == 1.0

    def test_mixed_runs(self):
        value = detection_stability([{1, 2}, {1, 2}, {3}])
        assert 0.0 < value < 1.0


class TestF1Spread:
    def test_empty(self):
        assert f1_spread([]) == 0.0

    def test_band(self):
        assert f1_spread([0.5, 0.6, 0.55]) == pytest.approx(0.1)


class TestSeedSweep:
    def test_ensemble_detections_are_stable_across_seeds(self, toy):
        """The paper's stability claim, quantified on the toy dataset."""
        config = EnsemFDetConfig(
            sampler=RandomEdgeSampler(0.4),
            n_samples=16,
            fdet=FdetConfig(max_blocks=6),
            executor="serial",
        )
        summary = seed_sweep_stability(
            toy.graph, toy.blacklist, config, seeds=[1, 2, 3], threshold=6
        )
        assert summary["detection_jaccard"] > 0.5
        assert summary["f1_spread"] < 0.2
        assert 0.0 < summary["f1_mean"] <= 1.0
