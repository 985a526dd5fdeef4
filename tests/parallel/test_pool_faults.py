"""Process-pool failure semantics: dead workers, member errors carried back
from a worker, workers that cannot be forked, and reclaiming hung workers
with SIGKILL."""

from __future__ import annotations

import errno
import itertools
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import connection
from multiprocessing.context import ForkProcess

import pytest

from repro.datasets import uniform_bipartite
from repro.ensemble import EnsemFDet, EnsemFDetConfig, detect_on_plans, run_members
from repro.errors import InjectedFault, WorkerCrashError
from repro.faults import arm, disarm
from repro.faults.chaos import leaked_spills
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


class TestPoolStart:
    """A pool that cannot fork its workers fails the attempt's members with
    kind ``transport``: under fork the first submit starts every worker, and
    the ones that did start are killed and reaped, not left to block the
    interpreter's exit."""

    @pytest.fixture
    def fork_fails(self, monkeypatch):
        """Make the ``nth`` worker fork from now on raise ``OSError(EAGAIN)``."""

        def arm_nth(nth: int) -> None:
            start = ForkProcess.start
            starts = itertools.count(1)

            def start_or_fail(process):
                if next(starts) == nth:
                    raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
                start(process)

            monkeypatch.setattr(ForkProcess, "start", start_or_fail)

        yield arm_nth
        # a worker left alive would block the interpreter's exit: reap it
        # here, so the leak fails the test instead of hanging the session
        for child in multiprocessing.active_children():
            child.kill()
            child.join()

    @staticmethod
    def _config(executor, member_timeout=None):
        return EnsemFDetConfig(
            sampler=RandomEdgeSampler(0.4),
            n_samples=4,
            fdet=FdetConfig(max_blocks=4),
            executor=executor,
            n_workers=2,
            seed=3,
            tolerance=FaultTolerance(member_timeout=member_timeout),
        )

    @pytest.mark.parametrize("member_timeout", [None, 30.0], ids=["no-timeout", "timeout"])
    @pytest.mark.parametrize("nth", [1, 2], ids=["first-fork", "second-fork"])
    def test_fit_retries_in_the_parent(self, parent, fork_fails, nth, member_timeout):
        graph, _ = parent
        serial = EnsemFDet(self._config("serial")).fit(graph)
        fork_fails(nth)
        result = EnsemFDet(self._config("process", member_timeout)).fit(graph)
        assert not result.failed_members
        assert dict(result.vote_table.user_votes) == dict(serial.vote_table.user_votes)
        assert dict(result.vote_table.merchant_votes) == dict(serial.vote_table.merchant_votes)
        first, retry = result.retry_log
        assert first["backend"] == "process"
        assert first["kinds"] == {str(i): "transport" for i in range(4)}
        assert (retry["backend"], retry["transport"], retry["failed"]) == ("serial", "local", [])
        assert multiprocessing.active_children() == []
        assert leaked_spills() == []

    @pytest.mark.parametrize("member_timeout", [None, 30.0], ids=["no-timeout", "timeout"])
    @pytest.mark.parametrize("nth", [1, 2], ids=["first-fork", "second-fork"])
    def test_strict_fan_out_raises_the_os_error(self, parent, fork_fails, nth, member_timeout):
        graph, plans = parent
        strict = FaultTolerance(member_timeout=member_timeout, max_retries=0, min_quorum=1.0)
        fork_fails(nth)
        with pytest.raises(OSError) as excinfo:
            detect_on_plans(
                graph,
                plans,
                FdetConfig(max_blocks=4),
                mode="process",
                n_workers=2,
                tolerance=strict,
            )
        assert excinfo.value.errno == errno.EAGAIN
        assert multiprocessing.active_children() == []
        assert leaked_spills() == []
