"""Execution backends for the embarrassingly-parallel ensemble stage.

EnsemFDet's selling point (paper §IV-C, Table III) is that the ``N`` FDET
runs over sampled subgraphs are independent, so they parallelise perfectly.
This module gives the ensemble one call — :func:`parallel_map` — with two
backends:

* ``serial``  — plain loop in the calling process. The ensemble runner
  runs its members here as one multi-member native kernel call that
  spreads them over the cores with OpenMP.
* ``process`` — ``ProcessPoolExecutor`` (fork context where available);
  the one backend whose hung or crashing members can be killed and
  retried. Requires picklable functions/arguments.

For repeated fan-outs, :class:`ReusablePool` keeps one process pool alive
across ``parallel_map`` calls so each ensemble fit stops paying process
start-up costs.

Both the one-shot process path and :class:`ReusablePool` accept an
``initializer`` run once per worker process at spawn — the ensemble
fan-out uses it to map the parent graph's store file exactly once per
worker instead of per task (see :func:`repro.graph.attached_store`).

All backends preserve input order and propagate the first worker exception.
Worker counts honour the ``REPRO_WORKERS`` environment variable so CI and
benchmarks can pin parallelism deterministically.

Failure semantics: pool-infrastructure failures (a worker SIGKILLed mid
chunk, an unpicklable task) surface as typed
:class:`~repro.errors.ParallelError` subclasses carrying the indices of
the work items that did not complete, never as a raw
``BrokenProcessPool``/``PicklingError`` traceback; task-level exceptions
(the function itself raising) still propagate unchanged. After a crash a
:class:`ReusablePool` respawns its executor automatically, so the next
``map`` runs on fresh workers.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
from concurrent.futures import BrokenExecutor, Executor, Future, ProcessPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from ..errors import ParallelError, ReproError, WorkerCrashError

__all__ = [
    "ExecutorMode",
    "ReusablePool",
    "parallel_map",
    "default_workers",
    "kill_executor_workers",
    "usable_cores",
]

T = TypeVar("T")
R = TypeVar("R")


class ExecutorMode:
    """Names of the available execution backends."""

    SERIAL = "serial"
    PROCESS = "process"
    ALL = (SERIAL, PROCESS)


def usable_cores() -> int:
    """CPUs this process may run on: the size of its affinity mask.

    ``os.cpu_count()`` counts the machine's CPUs whatever the mask
    (``taskset``, cgroup cpusets) allows, so sizing by it oversubscribes a
    pinned process. Falls back to ``os.cpu_count()`` where the platform has
    no ``sched_getaffinity``; floored at 1.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is None:
        return os.cpu_count() or 1
    return max(1, len(getaffinity(0)))


def default_workers(n_items: int | None = None) -> int:
    """Worker count: usable cores, capped by the number of items (if known).

    Set ``REPRO_WORKERS`` to pin the count explicitly (CI, benchmarks);
    values below 1 clamp to 1, non-integers raise :class:`ReproError`.
    """
    pinned = os.environ.get("REPRO_WORKERS")
    if pinned is not None and pinned.strip():
        try:
            workers = int(pinned)
        except ValueError:
            raise ReproError(f"REPRO_WORKERS must be an integer, got {pinned!r}") from None
        workers = max(1, workers)
    else:
        workers = usable_cores()
    if n_items is not None:
        workers = max(1, min(workers, n_items))
    return workers


def _process_context():
    # prefer fork (cheap, shares the parent's loaded modules); fall back to
    # the platform default where fork is unavailable.
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def kill_executor_workers(executor: Executor) -> int:
    """SIGKILL every live worker of a ``ProcessPoolExecutor``.

    The only way to reclaim a *hung* worker — ``shutdown()`` joins it (and
    hangs with it) and futures of running tasks cannot be cancelled.
    Returns the number of processes signalled.
    """
    processes = getattr(executor, "_processes", None)
    if not processes:
        return 0
    killed = 0
    for process in list(processes.values()):
        if process.is_alive():
            try:
                os.kill(process.pid, signal.SIGKILL)
                killed += 1
            except (ProcessLookupError, PermissionError):  # pragma: no cover
                pass
    return killed


def _incomplete_indices(futures: Sequence[Future]) -> tuple[int, ...]:
    """Indices whose future holds no usable result (pool died under them)."""
    out = []
    for index, future in enumerate(futures):
        if not future.done() or future.cancelled() or future.exception() is not None:
            out.append(index)
    return tuple(out)


class ReusablePool:
    """A process pool that survives across ``parallel_map`` calls.

    ``parallel_map`` tears its pool down after every call; that is correct
    but wasteful when the ensemble fits many times (threshold sweeps, the
    figure experiments, long-running services). A ``ReusablePool`` owns one
    ``ProcessPoolExecutor`` created lazily on first use and keeps it warm
    until :meth:`close`.

    >>> with ReusablePool(n_workers=2) as pool:
    ...     pool.map(abs, [-1, -2])
    [1, 2]

    ``initializer``/``initargs`` run once in every worker when the pool
    spawns. The pool must be told *at construction*, since workers outlive
    any single ``map`` call.
    """

    def __init__(
        self,
        n_workers: int | None = None,
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
    ) -> None:
        self.n_workers = n_workers or default_workers()
        self.initializer = initializer
        self.initargs = initargs
        self._executor: Executor | None = None
        #: how many times the executor was respawned after a worker crash
        self.restarts = 0

    def _ensure(self) -> Executor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.n_workers,
                mp_context=_process_context(),
                initializer=self.initializer,
                initargs=self.initargs,
            )
        return self._executor

    def submit(self, func: Callable[[T], R], item: T) -> Future:
        """Submit one task to the (lazily created) pool."""
        return self._ensure().submit(func, item)

    def map(self, func: Callable[[T], R], items: Sequence[T] | Iterable[T]) -> list[R]:
        """Apply ``func`` to every item on the pool, preserving order.

        A dead worker (SIGKILL/OOM/segfault) raises
        :class:`~repro.errors.WorkerCrashError` listing the item indices
        that did not complete, and the pool respawns its executor so the
        next call runs on fresh workers. Unpicklable tasks raise
        :class:`~repro.errors.ParallelError` with a remediation hint.
        Exceptions raised *by* ``func`` propagate unchanged.
        """
        from ..faults import fault_point

        work = list(items)
        if not work:
            return []
        fault_point("pool.map", n_items=len(work))
        futures: list[Future] = []
        try:
            futures = [self._ensure().submit(func, item) for item in work]
            return [future.result() for future in futures]
        except BrokenExecutor as exc:
            # items with no submitted future never started either
            incomplete = _incomplete_indices(futures) + tuple(
                range(len(futures), len(work))
            )
            self.respawn()
            raise WorkerCrashError(
                "a process pool worker died before finishing its chunk "
                f"(items {list(incomplete)} incomplete); the pool has been "
                "respawned — retry the failed items, or run with "
                "executor='serial' to isolate the failing member",
                member_indices=incomplete,
            ) from exc
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            # CPython reports unpicklable tasks inconsistently: PicklingError,
            # or AttributeError/TypeError saying "Can('t| not) pickle ..." —
            # anything else is a genuine task exception and propagates as-is
            if not isinstance(exc, pickle.PicklingError) and "pickle" not in str(exc).lower():
                raise
            raise ParallelError(
                "chunk submission to the process pool failed to pickle: "
                f"{exc}; task functions and their arguments must be "
                "module-level picklable for the process backend (use "
                "executor='serial' for closures)",
            ) from exc

    def kill_workers(self) -> int:
        """SIGKILL live workers (reclaims hung chunks)."""
        if self._executor is None:
            return 0
        return kill_executor_workers(self._executor)

    def respawn(self) -> None:
        """Discard the current executor; the next use spawns fresh workers."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
            self.restarts += 1

    def close(self) -> None:
        """Shut the workers down; the pool may not be used afterwards."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self) -> "ReusablePool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def parallel_map(
    func: Callable[[T], R],
    items: Sequence[T] | Iterable[T],
    mode: str = ExecutorMode.SERIAL,
    n_workers: int | None = None,
    pool: ReusablePool | None = None,
    initializer: Callable[..., None] | None = None,
    initargs: tuple = (),
) -> list[R]:
    """Apply ``func`` to every item, preserving order.

    Parameters
    ----------
    func:
        The per-item work. Must be picklable (module-level) for
        ``mode="process"``.
    items:
        Work items; consumed eagerly.
    mode:
        One of :class:`ExecutorMode`; ignored when ``pool`` is given.
    n_workers:
        Pool size; defaults to :func:`default_workers`.
    pool:
        An existing :class:`ReusablePool` to run on (kept alive afterwards)
        instead of spinning up and tearing down a fresh pool.
    initializer, initargs:
        Run once per spawned worker when this call creates its own pool
        (ignored for serial fallbacks and for an externally-owned ``pool``,
        whose workers already exist).
    """
    work = list(items)
    if mode not in ExecutorMode.ALL:
        raise ReproError(f"unknown executor mode {mode!r}; expected one of {ExecutorMode.ALL}")
    if not work:
        return []
    if pool is not None:
        return pool.map(func, work)
    if mode == ExecutorMode.SERIAL or len(work) == 1:
        return [func(item) for item in work]

    workers = n_workers or default_workers(len(work))
    if workers <= 1:
        return [func(item) for item in work]

    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=_process_context(),
        initializer=initializer,
        initargs=initargs,
    ) as executor:
        return list(executor.map(func, work))
