"""ReusablePool failure semantics: typed errors, respawn, injection hooks."""

from __future__ import annotations

import os
import signal

import pytest

from repro.errors import InjectedFault, ParallelError, WorkerCrashError
from repro.faults import arm, disarm
from repro.parallel import ReusablePool, kill_executor_workers


@pytest.fixture(autouse=True)
def _clean_faults():
    disarm()
    yield
    disarm()


def _square(x: int) -> int:
    return x * x


def _boom(x: int) -> int:
    raise ValueError(f"bad item {x}")


def _die_on_negative(x: int) -> int:
    if x < 0:
        os.kill(os.getpid(), signal.SIGKILL)
    return x * x


class TestWorkerCrash:
    def test_dead_worker_raises_typed_error_and_respawns(self):
        with ReusablePool(n_workers=2) as pool:
            with pytest.raises(WorkerCrashError) as excinfo:
                pool.map(_die_on_negative, [1, -2, 3, 4])
            error = excinfo.value
            assert isinstance(error, ParallelError)
            assert error.member_indices  # the unfinished items are named
            assert all(0 <= i < 4 for i in error.member_indices)
            assert pool.restarts == 1
            # the respawned pool is immediately usable
            assert pool.map(_square, [1, 2, 3]) == [1, 4, 9]

    def test_message_carries_remediation_hint(self):
        with ReusablePool(n_workers=2) as pool:
            with pytest.raises(WorkerCrashError, match="respawned"):
                pool.map(_die_on_negative, [-1, -1])


class TestPicklability:
    def test_unpicklable_task_is_a_parallel_error(self):
        with ReusablePool(n_workers=2) as pool:
            with pytest.raises(ParallelError, match="pickle"):
                pool.map(lambda x: x, [1, 2])

    def test_task_exceptions_propagate_unchanged(self):
        with ReusablePool(n_workers=2) as pool:
            with pytest.raises(ValueError, match="bad item"):
                pool.map(_boom, [1])


class TestInjection:
    def test_pool_map_fault_point_fires(self):
        arm("raise:point=pool.map")
        with ReusablePool(n_workers=2) as pool:
            with pytest.raises(InjectedFault, match="pool.map"):
                pool.map(_square, [1, 2])
            # the plan's times=1 budget is spent: next map runs clean
            assert pool.map(_square, [3]) == [9]


class TestKillWorkers:
    def test_unspawned_pool_kills_nothing(self):
        pool = ReusablePool(n_workers=2)
        assert pool.kill_workers() == 0

    def test_kill_executor_workers_counts_processes(self):
        with ReusablePool(n_workers=2) as pool:
            pool.map(_square, [1, 2, 3, 4])
            killed = kill_executor_workers(pool._executor)
            assert killed >= 1
            pool.respawn()
            assert pool.map(_square, [5]) == [25]
