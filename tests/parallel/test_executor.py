"""Unit tests for the parallel-map substrate."""

from __future__ import annotations

import os
import time

import pytest

from repro.errors import ReproError
from repro.faults.chaos import leaked_spills
from repro.parallel import (
    ExecutorMode,
    ReusablePool,
    Timer,
    default_workers,
    parallel_map,
    time_callable,
)


def square(x: int) -> int:
    return x * x


def failing(x: int) -> int:
    raise ValueError(f"boom on {x}")


class TestParallelMap:
    @pytest.mark.parametrize("mode", ExecutorMode.ALL)
    def test_preserves_order(self, mode):
        items = list(range(20))
        assert parallel_map(square, items, mode=mode) == [x * x for x in items]

    @pytest.mark.parametrize("mode", ExecutorMode.ALL)
    def test_empty_items(self, mode):
        assert parallel_map(square, [], mode=mode) == []

    def test_single_item_short_circuits(self):
        assert parallel_map(square, [3], mode=ExecutorMode.PROCESS) == [9]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ReproError, match="unknown executor"):
            parallel_map(square, [1], mode="gpu")

    @pytest.mark.parametrize("mode", ExecutorMode.ALL)
    def test_exceptions_propagate(self, mode):
        with pytest.raises(ValueError, match="boom"):
            parallel_map(failing, [1, 2], mode=mode)

    def test_n_workers_one_falls_back_to_serial(self):
        assert parallel_map(square, [1, 2, 3], mode=ExecutorMode.PROCESS, n_workers=1) == [1, 4, 9]

    def test_generator_input(self):
        assert parallel_map(square, (x for x in range(4)), mode=ExecutorMode.SERIAL) == [0, 1, 4, 9]


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


class TestReusablePool:
    def test_map_preserves_order(self):
        with ReusablePool(n_workers=2) as pool:
            assert pool.map(square, range(10)) == [x * x for x in range(10)]

    def test_reused_across_calls(self):
        with ReusablePool(n_workers=2) as pool:
            pool.map(square, [1])
            executor = pool._executor
            pool.map(square, [2, 3])
            assert pool._executor is executor  # same warm workers

    def test_process_pool_map(self):
        with ReusablePool(n_workers=2) as pool:
            assert pool.map(square, [4, 5]) == [16, 25]

    def test_parallel_map_routes_through_pool(self):
        with ReusablePool(n_workers=2) as pool:
            result = parallel_map(square, [1, 2, 3], mode=ExecutorMode.SERIAL, pool=pool)
            assert result == [1, 4, 9]
            assert pool._executor is not None

    def test_empty_map_does_not_spawn(self):
        pool = ReusablePool(n_workers=2)
        assert pool.map(square, []) == []
        assert pool._executor is None
        pool.close()

    def test_close_is_idempotent(self):
        pool = ReusablePool(n_workers=1)
        pool.map(square, [1])
        pool.close()
        pool.close()

    def test_close_before_use_is_noop(self):
        pool = ReusablePool(n_workers=1)
        pool.close()
        pool.close()

    def test_initializer_runs_once_per_worker(self):
        with ReusablePool(
            n_workers=2,
            initializer=_set_init_mark,
            initargs=("yes",),
        ) as pool:
            marks = pool.map(_read_init_mark, range(8))
        assert marks == ["yes"] * 8


def _set_init_mark(value: str) -> None:
    os.environ["REPRO_POOL_INIT_MARK"] = value


def _read_init_mark(_: int) -> str:
    return os.environ.get("REPRO_POOL_INIT_MARK", "missing")


class TestReusablePoolEnsembleLifecycle:
    """The pool survives (and stays correct) across whole ensemble fits."""

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
            seed=9,
        )
        defaults.update(overrides)
        return EnsemFDetConfig(**defaults)

    def test_reused_across_multiple_fits(self):
        from repro.ensemble import EnsemFDet

        graph = self._graph()
        with ReusablePool(n_workers=2) as pool:
            detector = EnsemFDet(self._config(), pool=pool)
            first = detector.fit(graph)
            executor = pool._executor
            second = detector.fit(graph)
            assert pool._executor is executor  # same warm workers
        serial = EnsemFDet(self._config(executor=ExecutorMode.SERIAL)).fit(graph)
        assert first.vote_table.user_votes == serial.vote_table.user_votes
        assert second.vote_table.user_votes == serial.vote_table.user_votes

    def test_repro_workers_pins_pool_size(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        pool = ReusablePool()
        assert pool.n_workers == 2
        pool.close()

    def test_spills_cleaned_after_fits_and_close(self):
        from repro.ensemble import EnsemFDet

        graph = self._graph()
        pool = ReusablePool(n_workers=2)
        try:
            EnsemFDet(self._config(), pool=pool).fit(graph)
            # the per-fit spill directory is already removed before fit returns
            assert leaked_spills() == []
            EnsemFDet(self._config(seed=10), pool=pool).fit(graph)
            assert leaked_spills() == []
        finally:
            pool.close()
        pool.close()  # idempotent after real use
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
