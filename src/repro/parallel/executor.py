"""Execution backends for the embarrassingly-parallel ensemble stage.

EnsemFDet's selling point (paper §IV-C, Table III) is that the ``N`` FDET
runs over sampled subgraphs are independent, so they parallelise perfectly.
The ensemble runner (:func:`repro.ensemble.runner.run_members`) has two
backends:

* ``serial``  — every member in the calling process, as one multi-member
  native kernel call that spreads them over the cores with OpenMP.
* ``process`` — one ``ProcessPoolExecutor`` per attempt (fork context
  where available), one chunk of members per worker; the one backend
  whose hung or crashing members can be killed and retried.

This module holds what the runner needs to size and tear down that pool.
Worker counts honour the ``REPRO_WORKERS`` environment variable so CI and
benchmarks can pin parallelism deterministically.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
from concurrent.futures import Executor

from ..errors import ReproError

__all__ = [
    "ExecutorMode",
    "default_workers",
    "kill_executor_workers",
    "usable_cores",
]


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
