"""Unit tests for the execution substrate: worker sizing, the member
fan-out on both backends, one process pool per attempt, timing, and
consecutive process-pool ensemble fits."""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.datasets import uniform_bipartite
from repro.ensemble import detect_on_plans, run_members
from repro.ensemble.runner import _chunked
from repro.errors import InjectedFault, ReproError
from repro.faults import arm, disarm
from repro.faults.chaos import leaked_spills
from repro.fdet import FdetConfig
from repro.graph import GraphStore, StoreLayout
from repro.parallel import ExecutorMode, FaultTolerance, Timer, default_workers, time_callable
from repro.sampling import RandomEdgeSampler


def square(x: int) -> int:
    return x * x


@pytest.fixture
def pools(monkeypatch):
    """Every process pool the runner starts, recorded as it is made."""
    from repro.ensemble import runner

    made: list[ProcessPoolExecutor] = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.chunks: list[tuple] = []
            self.shutdowns = 0
            made.append(self)

        def submit(self, fn, /, *args, **kwargs):
            self.chunks.append(args[0])
            return super().submit(fn, *args, **kwargs)

        def shutdown(self, *args, **kwargs):
            self.shutdowns += 1
            return super().shutdown(*args, **kwargs)

    monkeypatch.setattr(runner, "ProcessPoolExecutor", RecordingPool)
    return made


def _member_plans(n_plans: int):
    graph = uniform_bipartite(60, 30, 300, rng=0)
    return graph, RandomEdgeSampler(0.4).plan_many(graph, n_plans, rng=1)


class TestDefaultWorkers:
    def test_capped_by_items(self):
        assert default_workers(n_items=2) <= 2

    def test_at_least_one(self):
        assert default_workers(n_items=0) >= 1
        assert default_workers() >= 1

    def test_bounded_by_cpu(self):
        assert default_workers() <= (os.cpu_count() or 1)

    def test_env_pin(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3
        assert default_workers(n_items=2) == 2  # items still cap the pin

    def test_env_pin_clamped_to_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert default_workers() == 1
        monkeypatch.setenv("REPRO_WORKERS", "-4")
        assert default_workers() == 1

    def test_env_pin_invalid_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "lots")
        with pytest.raises(ReproError, match="REPRO_WORKERS"):
            default_workers()

    def test_env_pin_blank_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "  ")
        assert default_workers() >= 1


class TestRunMembers:
    """The fan-out contract on both backends: plan order, empty input,
    typed rejection, strict errors, and the process backend's in-parent
    short cuts."""

    @pytest.fixture(autouse=True)
    def _calm(self):
        disarm()
        yield
        disarm()

    @pytest.fixture(scope="class")
    def parent(self):
        return _member_plans(5)

    @pytest.mark.parametrize("mode", ExecutorMode.ALL)
    def test_preserves_order(self, parent, mode):
        graph, plans = parent
        config = FdetConfig(max_blocks=4)
        run = run_members(graph, plans, config, mode=mode, n_workers=2)
        assert not run.failures
        for plan, detection in zip(plans, run.detections):
            alone = run_members(graph, [plan], config).detections[0]
            assert np.array_equal(detection.sample_users, alone.sample_users)
            assert np.array_equal(
                detection.result.detected_users(), alone.result.detected_users()
            )

    @pytest.mark.parametrize("mode", ExecutorMode.ALL)
    def test_empty_plans(self, parent, pools, mode):
        graph, _ = parent
        run = run_members(graph, [], FdetConfig(), mode=mode, n_workers=2)
        assert (run.detections, run.failures, run.retry_log) == ([], (), ())
        assert pools == []  # no pool is started for nothing

    def test_unknown_mode_rejected(self, parent):
        graph, plans = parent
        with pytest.raises(ReproError, match="unknown executor"):
            run_members(graph, plans, FdetConfig(), mode="gpu")

    def test_generator_plans(self, parent):
        graph, plans = parent
        run = run_members(graph, (plan for plan in plans), FdetConfig(max_blocks=4))
        assert len(run.survivors()) == len(plans)

    def test_single_plan_runs_in_parent(self, parent, pools):
        graph, plans = parent
        run = run_members(
            graph, plans[:1], FdetConfig(max_blocks=4), mode=ExecutorMode.PROCESS, n_workers=2
        )
        assert run.detections[0] is not None
        assert (run.retry_log[0]["backend"], run.retry_log[0]["transport"]) == (
            ExecutorMode.SERIAL,
            "local",
        )
        assert pools == []

    @pytest.mark.parametrize("pin", ["n_workers", "env"])
    def test_one_worker_runs_in_parent(self, parent, pools, pin, monkeypatch):
        graph, plans = parent
        n_workers = 1 if pin == "n_workers" else None
        if pin == "env":
            monkeypatch.setenv("REPRO_WORKERS", "1")
        run = run_members(
            graph, plans, FdetConfig(max_blocks=4), mode=ExecutorMode.PROCESS, n_workers=n_workers
        )
        assert len(run.survivors()) == len(plans)
        assert run.retry_log[0]["transport"] == "local"
        assert pools == []

    @pytest.mark.parametrize("mode", ExecutorMode.ALL)
    def test_strict_fan_out_raises_the_member_error(self, parent, mode):
        graph, plans = parent
        arm("raise:point=member.detect,index=1")
        with pytest.raises(InjectedFault, match="member.detect"):
            detect_on_plans(graph, plans, FdetConfig(max_blocks=4), mode=mode, n_workers=2)


class TestProcessAttempt:
    """Each process attempt starts one pool sized to its chunks, ships
    every chunk the same store-file layout, and shuts the pool down before
    it returns."""

    @pytest.fixture(autouse=True)
    def _calm(self):
        disarm()
        yield
        disarm()

    @pytest.fixture(scope="class")
    def parent(self):
        return _member_plans(6)

    @pytest.mark.parametrize("n_workers,expected", [(2, 2), (4, 4), (8, 6)])
    def test_one_pool_sized_to_its_chunks(self, parent, pools, n_workers, expected):
        graph, plans = parent
        run = run_members(
            graph, plans, FdetConfig(max_blocks=4), mode=ExecutorMode.PROCESS, n_workers=n_workers
        )
        assert len(run.survivors()) == len(plans)
        assert len(pools) == 1
        assert pools[0]._max_workers == expected
        assert len(pools[0].chunks) == expected

    def test_chunks_cover_members_in_order_with_one_layout(self, parent, pools):
        graph, plans = parent
        run_members(graph, plans, FdetConfig(max_blocks=4), mode=ExecutorMode.PROCESS, n_workers=4)
        (pool,) = pools
        sources = [chunk[0] for chunk in pool.chunks]
        # the spilled parent travels as one small descriptor, not its columns
        assert isinstance(sources[0], StoreLayout)
        assert all(source is sources[0] for source in sources)
        members = [index for chunk in pool.chunks for index, _ in chunk[2]]
        assert members == list(range(len(plans)))

    def test_file_backed_parent_ships_its_own_layout(self, parent, pools, tmp_path):
        # a parent that is already a store file is never spilled: every
        # chunk carries that file's own layout
        graph, plans = parent
        GraphStore.from_graph(graph).save(tmp_path / "g.store")
        store = GraphStore.open(tmp_path / "g.store")
        run = run_members(
            store, plans, FdetConfig(max_blocks=4), mode=ExecutorMode.PROCESS, n_workers=2
        )
        assert len(run.survivors()) == len(plans)
        assert run.retry_log[0]["transport"] == "file"
        (pool,) = pools
        assert [chunk[0] for chunk in pool.chunks] == [store.layout, store.layout]
        assert leaked_spills() == []

    def test_pool_is_shut_down_when_the_attempt_returns(self, parent, pools):
        graph, plans = parent
        run_members(graph, plans, FdetConfig(max_blocks=4), mode=ExecutorMode.PROCESS, n_workers=2)
        assert [pool.shutdowns for pool in pools] == [1]
        with pytest.raises(RuntimeError, match="shutdown"):
            pools[0].submit(square, 1)
        assert leaked_spills() == []

    def test_repro_workers_sizes_the_pool(self, parent, pools, monkeypatch):
        graph, plans = parent
        monkeypatch.setenv("REPRO_WORKERS", "3")
        run_members(graph, plans, FdetConfig(max_blocks=4), mode=ExecutorMode.PROCESS)
        assert [pool._max_workers for pool in pools] == [3]

    def test_timed_out_round_starts_a_fresh_pool(self, parent, pools):
        # only a round that retries a timed-out member goes back to the pool
        graph, plans = parent
        arm("hang:point=member.detect,index=1,seconds=20")
        run = run_members(
            graph,
            plans,
            FdetConfig(max_blocks=4),
            mode=ExecutorMode.PROCESS,
            n_workers=2,
            tolerance=FaultTolerance(member_timeout=1.0),
        )
        assert not run.failures
        assert [entry["backend"] for entry in run.retry_log] == [ExecutorMode.PROCESS] * 2
        assert "timeout" in run.retry_log[0]["kinds"].values()
        # the killed pool is not reused: the retry forks a new one
        assert len(pools) == 2 and pools[0] is not pools[1]
        assert [pool.shutdowns for pool in pools] == [1, 1]


class TestChunked:
    @pytest.mark.parametrize("n_items,n_chunks", [(7, 3), (6, 6), (3, 8), (5, 1), (4, 0)])
    def test_contiguous_near_equal_chunks(self, n_items, n_chunks):
        items = list(range(n_items))
        chunks = _chunked(items, n_chunks)
        assert len(chunks) == max(1, min(n_chunks, n_items))
        assert [item for chunk in chunks for item in chunk] == items
        sizes = [len(chunk) for chunk in chunks]
        assert max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)  # the larger chunks go first


class TestProcessFitLifecycle:
    """Consecutive process-pool fits stay correct and leave nothing behind.

    Tests elsewhere in the fault suites disarm around themselves; these
    fits are the ones that meet an ambient ``REPRO_FAULTS`` plan and must
    recover from it through the tolerance layer.
    """

    @staticmethod
    def _graph():
        from repro.graph import BipartiteGraph

        rng_local = __import__("numpy").random.default_rng(3)
        users = rng_local.integers(0, 120, size=900)
        merchants = rng_local.integers(0, 40, size=900)
        return BipartiteGraph(120, 40, users, merchants)

    @staticmethod
    def _config(**overrides):
        from repro.ensemble import EnsemFDetConfig
        from repro.fdet import FdetConfig
        from repro.sampling import RandomEdgeSampler

        defaults = dict(
            sampler=RandomEdgeSampler(0.4),
            n_samples=6,
            fdet=FdetConfig(max_blocks=4),
            executor=ExecutorMode.PROCESS,
            n_workers=2,
            seed=9,
        )
        defaults.update(overrides)
        return EnsemFDetConfig(**defaults)

    @pytest.mark.parametrize("transport", ["mmap", "file"])
    def test_consecutive_fits_match_serial(self, transport, tmp_path):
        from repro.ensemble import EnsemFDet
        from repro.graph import GraphStore

        graph = self._graph()
        parent = graph
        if transport == "file":
            GraphStore.from_graph(graph).save(tmp_path / "g.store")
            parent = GraphStore.open(tmp_path / "g.store")
        for seed in (9, 10):
            result = EnsemFDet(self._config(seed=seed)).fit(parent)
            serial = EnsemFDet(self._config(seed=seed, executor=ExecutorMode.SERIAL)).fit(graph)
            assert not result.failed_members
            assert result.retry_log[0]["backend"] == ExecutorMode.PROCESS
            assert result.retry_log[0]["transport"] == transport
            assert dict(result.vote_table.user_votes) == dict(serial.vote_table.user_votes)
            assert dict(result.vote_table.merchant_votes) == dict(
                serial.vote_table.merchant_votes
            )
            # the attempt's spill directory is removed before fit returns
            assert leaked_spills() == []


class TestTiming:
    def test_timer_measures(self):
        with Timer() as timer:
            time.sleep(0.01)
        assert timer.elapsed >= 0.009

    def test_time_callable_returns_value(self):
        timing = time_callable(square, 7)
        assert timing.value == 49
        assert timing.seconds >= 0
