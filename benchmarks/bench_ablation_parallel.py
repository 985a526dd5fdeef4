"""Ablation: executor backends for the detection stage (DESIGN.md §5).

Serial vs process on the same sample plans. The paper's parallelism
claim corresponds to the process backend.
"""

from __future__ import annotations

import pytest

from repro.datasets import make_jd_dataset
from repro.ensemble import detect_on_plans
from repro.fdet import FdetConfig
from repro.parallel import ExecutorMode
from repro.sampling import RandomEdgeSampler


@pytest.fixture(scope="module")
def workload(preset):
    dataset = make_jd_dataset(3, scale=preset.dataset_scale, seed=0)
    plans = RandomEdgeSampler(preset.sample_ratio).plan_many(
        dataset.graph, preset.n_samples, rng=0
    )
    return dataset.graph, plans, FdetConfig(max_blocks=preset.max_blocks)


@pytest.mark.parametrize("mode", ExecutorMode.ALL)
def test_executor_mode(benchmark, workload, mode):
    graph, plans, config = workload
    results = benchmark.pedantic(
        detect_on_plans, args=(graph, plans, config), kwargs={"mode": mode},
        rounds=1, iterations=1,
    )
    assert len(results) == len(plans)
    total_blocks = sum(r.result.n_blocks for r in results)
    assert total_blocks >= len(plans)  # every sample yields at least one block
    print()
    print(f"{mode}: {total_blocks} blocks over {len(plans)} samples")
