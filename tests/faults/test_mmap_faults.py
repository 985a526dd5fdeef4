"""The spilled store file degrades to the pickled store: an injected
``mmap.open`` failure falls back, bitwise-identically."""

from __future__ import annotations

import pytest

from repro.datasets import uniform_bipartite
from repro.ensemble import EnsemFDet, EnsemFDetConfig
from repro.faults import arm, disarm
from repro.faults.chaos import leaked_spills
from repro.fdet import FdetConfig
from repro.parallel import FaultTolerance, ReusablePool
from repro.sampling import RandomEdgeSampler


@pytest.fixture(autouse=True)
def _clean_faults():
    disarm()
    yield
    disarm()


@pytest.fixture(scope="module")
def graph():
    return uniform_bipartite(60, 30, 300, rng=0)


def _config(executor="serial", n_workers=None, **tolerance_kwargs):
    return EnsemFDetConfig(
        sampler=RandomEdgeSampler(0.4),
        n_samples=6,
        fdet=FdetConfig(max_blocks=6),
        executor=executor,
        n_workers=n_workers,
        seed=3,
        tolerance=FaultTolerance(**tolerance_kwargs),
    )


def _tables_equal(a, b) -> bool:
    return (
        a.n_samples == b.n_samples
        and dict(a.user_votes) == dict(b.user_votes)
        and dict(a.merchant_votes) == dict(b.merchant_votes)
    )


def test_mmap_open_failure_falls_back_to_pickled_store(graph):
    reference = EnsemFDet(_config()).fit(graph)
    arm("raise:point=mmap.open")
    with ReusablePool(n_workers=2) as pool:
        result = EnsemFDet(
            _config(executor="process", n_workers=2, degrade=False),
            pool=pool,
        ).fit(graph)
    assert not result.failed_members
    assert _tables_equal(result.vote_table, reference.vote_table)
    # first attempt went out over the spilled store file…
    assert result.retry_log[0]["transport"] == "mmap"
    assert "transport" in result.retry_log[0]["kinds"].values()
    # …and the retry shipped the pickled store instead
    assert result.retry_log[1]["transport"] == "pickle"
    assert leaked_spills() == []
