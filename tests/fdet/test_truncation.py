"""Unit tests for truncating-point rules (paper Definition 3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DetectionError
from repro.fdet import FixedKRule, SecondDifferenceRule, second_differences


class TestSecondDifferences:
    def test_formula(self):
        deltas = second_differences([3.0, 2.0, 1.5])
        assert deltas.tolist() == [0.5]  # 1.5 - 4.0 + 3.0

    def test_short_series(self):
        assert second_differences([1.0]).size == 0
        assert second_differences([1.0, 0.5]).size == 0

    def test_linear_series_zero(self):
        deltas = second_differences([4.0, 3.0, 2.0, 1.0])
        assert np.allclose(deltas, 0.0)


class TestSecondDifferenceRule:
    def test_sharp_cliff(self):
        # flat-ish fraud plateau, then a cliff into the noise floor
        series = [1.20, 1.15, 1.10, 1.05, 0.40, 0.38, 0.36]
        assert SecondDifferenceRule().truncate(series) == 4

    def test_cliff_at_second_block(self):
        series = [1.2, 1.1, 0.3, 0.29, 0.28]
        assert SecondDifferenceRule().truncate(series) == 2

    def test_short_series_kept_whole(self):
        rule = SecondDifferenceRule()
        assert rule.truncate([]) == 0
        assert rule.truncate([1.0]) == 1
        assert rule.truncate([1.0, 0.5]) == 2

    def test_result_always_in_bounds(self):
        rule = SecondDifferenceRule()
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 20))
            series = np.sort(rng.random(n))[::-1].tolist()
            k = rule.truncate(series)
            assert 1 <= k <= n

    def test_tied_elbows_keep_the_first(self):
        # second differences [-1, 1, -1]: the first minimum wins, so the cut
        # does not depend on anything but the series
        assert SecondDifferenceRule().truncate([3.0, 3.0, 2.0, 2.0, 1.0]) == 2

    def test_array_and_list_agree(self):
        series = [1.20, 1.15, 1.10, 1.05, 0.40, 0.38, 0.36]
        rule = SecondDifferenceRule()
        assert rule.truncate(np.array(series)) == rule.truncate(series) == 4


class TestFixedKRule:
    def test_truncates_to_k(self):
        assert FixedKRule(3).truncate([1.0, 0.9, 0.8, 0.7]) == 3

    def test_clamped_to_series_length(self):
        assert FixedKRule(30).truncate([1.0, 0.9]) == 2

    def test_invalid_k(self):
        with pytest.raises(DetectionError):
            FixedKRule(0)

    def test_empty_series_keeps_nothing(self):
        assert FixedKRule(3).truncate([]) == 0

    def test_k_one_keeps_the_first_block(self):
        assert FixedKRule(1).truncate([1.0, 0.9, 0.8]) == 1
