"""Ablation: FDET edge-weight policy — refresh vs frozen (DESIGN.md §5).

``refresh`` recomputes ``1/log(d_j + c)`` on the residual graph before every
block; ``frozen`` keeps the original graph's degrees. Both are timed and
scored; the bench asserts they stay in the same quality band (the choice is
a convention, not a cliff) and reports the timing difference.
"""

from __future__ import annotations

import pytest

from repro.datasets import make_jd_dataset
from repro.fdet import Fdet, FdetConfig, WeightPolicy
from repro.metrics import detection_confusion
from repro.parallel import time_callable


@pytest.fixture(scope="module")
def dataset(preset):
    return make_jd_dataset(1, scale=preset.dataset_scale, seed=0)


@pytest.mark.parametrize("policy", [WeightPolicy.REFRESH, WeightPolicy.FROZEN])
def test_weight_policy(benchmark, dataset, preset, policy):
    detector = Fdet(FdetConfig(max_blocks=preset.max_blocks, weight_policy=policy))
    result = benchmark.pedantic(detector.detect, args=(dataset.graph,), rounds=1, iterations=1)

    confusion = detection_confusion(result.detected_users(), dataset.blacklist)
    # either policy must land detections far above chance
    chance = len(dataset.blacklist) / dataset.graph.n_users
    assert confusion.precision > 3 * chance, (policy, confusion.as_row())

    print()
    print(f"{policy}: k_hat={result.k_hat} blocks={result.n_blocks} "
          f"P={confusion.precision:.3f} R={confusion.recall:.3f} F1={confusion.f1:.3f}")


def test_policies_land_in_same_band(dataset, preset):
    scores = {}
    for policy in WeightPolicy.ALL:
        detector = Fdet(FdetConfig(max_blocks=preset.max_blocks, weight_policy=policy))
        timing = time_callable(detector.detect, dataset.graph)
        confusion = detection_confusion(timing.value.detected_users(), dataset.blacklist)
        scores[policy] = confusion.f1
    assert abs(scores[WeightPolicy.REFRESH] - scores[WeightPolicy.FROZEN]) < 0.25, scores
