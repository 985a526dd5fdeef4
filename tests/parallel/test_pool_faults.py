"""Process-pool failure semantics: dead workers, member errors carried back
from a worker, and reclaiming hung workers with SIGKILL."""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import connection

import pytest

from repro.datasets import uniform_bipartite
from repro.ensemble import detect_on_plans, run_members
from repro.errors import InjectedFault, WorkerCrashError
from repro.faults import arm, disarm
from repro.fdet import FdetConfig
from repro.parallel import FaultTolerance, kill_executor_workers
from repro.parallel.executor import _process_context
from repro.sampling import RandomEdgeSampler


@pytest.fixture(autouse=True)
def _clean_faults():
    disarm()
    yield
    disarm()


@pytest.fixture(scope="module")
def parent():
    """A small parent and four member plans: two chunks of two on a 2-pool."""
    graph = uniform_bipartite(60, 30, 300, rng=0)
    return graph, RandomEdgeSampler(0.4).plan_many(graph, 4, rng=3)


def _square(x: int) -> int:
    return x * x


class TestWorkerCrash:
    def test_dead_worker_fails_unfinished_chunks_as_crash(self, parent):
        graph, plans = parent
        arm("crash:point=member.detect,index=0")
        run = run_members(
            graph,
            plans,
            FdetConfig(max_blocks=4),
            mode="process",
            n_workers=2,
            tolerance=FaultTolerance.strict(),
        )
        failed = {failure.index: failure.kind for failure in run.failures}
        # the dead worker's chunk [0, 1] is lost; chunk [2, 3] either
        # finished before the pool broke (and keeps its detections) or is
        # lost with it
        assert {0, 1} <= set(failed)
        assert set(failed.values()) == {"crash"}
        assert all(run.detections[i] is not None for i in range(4) if i not in failed)
        assert run.retry_log[0]["backend"] == "process"

    def test_strict_crash_names_members_and_remedies(self, parent):
        graph, plans = parent
        arm("crash:point=member.detect,index=2")
        with pytest.raises(WorkerCrashError, match="max_retries") as excinfo:
            detect_on_plans(graph, plans, FdetConfig(max_blocks=4), mode="process", n_workers=2)
        assert 2 in excinfo.value.member_indices
        assert "executor='serial'" in str(excinfo.value)


class TestMemberErrors:
    def test_member_error_comes_back_typed_and_alone(self, parent):
        graph, plans = parent
        arm("raise:point=member.detect,index=1")
        run = run_members(
            graph,
            plans,
            FdetConfig(max_blocks=4),
            mode="process",
            n_workers=2,
            tolerance=FaultTolerance.strict(),
        )
        assert [(failure.index, failure.kind) for failure in run.failures] == [(1, "error")]
        # the worker's exception object is pickled back unchanged
        assert isinstance(run.errors[1], InjectedFault)
        assert "member.detect" in run.failures[0].error
        # member 0 shares the failed member's chunk and still detects
        assert all(run.detections[i] is not None for i in (0, 2, 3))


class TestKillWorkers:
    def test_unspawned_pool_kills_nothing(self):
        executor = ProcessPoolExecutor(max_workers=2, mp_context=_process_context())
        try:
            assert kill_executor_workers(executor) == 0
        finally:
            executor.shutdown()

    def test_kill_executor_workers_counts_processes(self):
        executor = ProcessPoolExecutor(max_workers=2, mp_context=_process_context())
        try:
            assert list(executor.map(_square, [1, 2, 3, 4])) == [1, 4, 9, 16]
            processes = list(executor._processes.values())
            killed = kill_executor_workers(executor)
            assert killed >= 1
            # wait on the exit sentinels rather than join()/is_alive(): the
            # pool's manager thread reaps the killed workers concurrently,
            # and a second waitpid on a pid it has just reaped reads as
            # "still alive"
            pending = [process.sentinel for process in processes]
            deadline = time.monotonic() + 10
            while pending and time.monotonic() < deadline:
                ready = connection.wait(pending, timeout=deadline - time.monotonic())
                pending = [sentinel for sentinel in pending if sentinel not in ready]
            assert pending == []
        finally:
            executor.shutdown(wait=False, cancel_futures=True)
