"""Faults at the batched native backend: the ``native.peel`` point.

The point fires per member in whatever process runs it (the parent, or
the pool worker running the member's chunk), right before the member is
enrolled into the multi-member kernel call — so an injected failure takes
down exactly that member on either backend, the retry machinery recovers
it bitwise, and a worker *crash* during a batched round moves the
remaining retries to the ``reference`` engine, which runs no native code
(a store-file map failure keeps the ``fast`` engine and retries in the
parent).
"""

from __future__ import annotations

import pytest

from repro.datasets import uniform_bipartite
from repro.ensemble import EnsemFDet, EnsemFDetConfig
from repro.faults import arm, disarm
from repro.fdet import FdetConfig, PeelEngine
from repro.fdet._native import native_available
from repro.parallel import FaultTolerance
from repro.sampling import RandomEdgeSampler

pytestmark = pytest.mark.skipif(
    not native_available(), reason="native kernel unavailable (no C compiler)"
)


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


#: both backends run the same member loop, so a member's own fault fails
#: that member alone on either of them
BACKENDS = pytest.mark.parametrize(
    "executor,n_workers", [("serial", None), ("process", 2)], ids=["serial", "process"]
)


class TestNativePeelFaults:
    @BACKENDS
    def test_raise_recovers_bitwise_with_batch_still_on(self, graph, executor, n_workers):
        reference = EnsemFDet(_config()).fit(graph)
        arm("raise:point=native.peel,index=2")
        result = EnsemFDet(_config(executor=executor, n_workers=n_workers)).fit(graph)
        assert not result.failed_members
        assert _tables_equal(result.vote_table, reference.vote_table)
        # the faulted member failed round 0 and recovered in round 1
        assert result.retry_log[0]["failed"] == [2]
        assert result.retry_log[0]["kinds"]["2"] == "error"
        assert result.retry_log[1]["members"] == [2]
        assert result.retry_log[1]["failed"] == []
        # an application-level error does not indict the kernel: the retry
        # round stays on the fast engine
        assert result.retry_log[0]["engine"] == PeelEngine.FAST
        assert result.retry_log[1]["engine"] == PeelEngine.FAST

    @BACKENDS
    def test_fault_isolates_one_member_not_the_batch(self, graph, executor, n_workers):
        """The other five members of the batched round still detect."""
        arm("raise:point=native.peel,index=3,attempt=-1,times=-1")
        result = EnsemFDet(_config(executor=executor, n_workers=n_workers)).fit(graph)
        assert result.retry_log[0]["backend"] == executor
        assert result.retry_log[0]["failed"] == [3]
        assert [f.index for f in result.failed_members] == [3]
        assert result.n_samples == 5

    def test_worker_crash_moves_retries_to_the_reference_engine(self, graph):
        reference = EnsemFDet(_config()).fit(graph)
        arm("crash:point=native.peel,index=1")
        result = EnsemFDet(_config(executor="process", n_workers=2)).fit(graph)
        assert not result.failed_members
        assert _tables_equal(result.vote_table, reference.vote_table)
        # a dead worker during a batched round is treated as a possible
        # kernel fault: retries run the engine with no native code
        assert result.retry_log[0]["engine"] == PeelEngine.FAST
        assert "crash" in result.retry_log[0]["kinds"].values()
        assert len(result.retry_log) > 1
        assert all(
            entry["engine"] == PeelEngine.REFERENCE for entry in result.retry_log[1:]
        )

    def test_retry_log_is_deterministic_under_batch(self, graph):
        plan = "raise:point=native.peel,index=1;raise:point=native.peel,index=4"
        logs, tables = [], []
        for _ in range(2):
            arm(plan)
            result = EnsemFDet(_config()).fit(graph)
            logs.append(result.retry_log)
            tables.append(result.vote_table)
        assert logs[0] == logs[1]
        assert _tables_equal(tables[0], tables[1])
