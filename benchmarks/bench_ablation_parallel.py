"""Ablation: executor backends for the detection stage (DESIGN.md §5).

Serial vs process on the same sampled-graph workload. The paper's
parallelism claim corresponds to the process backend.
"""

from __future__ import annotations

import pytest

from repro.datasets import make_jd_dataset
from repro.ensemble import detect_on_samples
from repro.fdet import FdetConfig
from repro.parallel import ExecutorMode
from repro.sampling import RandomEdgeSampler


@pytest.fixture(scope="module")
def workload(preset):
    dataset = make_jd_dataset(3, scale=preset.dataset_scale, seed=0)
    samples = RandomEdgeSampler(preset.sample_ratio).sample_many(
        dataset.graph, preset.n_samples, rng=0
    )
    return samples, FdetConfig(max_blocks=preset.max_blocks)


@pytest.mark.parametrize("mode", ExecutorMode.ALL)
def test_executor_mode(benchmark, workload, mode):
    samples, config = workload
    results = benchmark.pedantic(
        detect_on_samples, args=(samples, config), kwargs={"mode": mode},
        rounds=1, iterations=1,
    )
    assert len(results) == len(samples)
    total_blocks = sum(r.result.n_blocks for r in results)
    assert total_blocks >= len(samples)  # every sample yields at least one block
    print()
    print(f"{mode}: {total_blocks} blocks over {len(samples)} samples")
