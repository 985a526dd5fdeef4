"""Parallel execution of FDET across sampled subgraphs (paper Fig. 2).

:func:`detect_on_plans` is the **zero-copy** fan-out behind
:class:`~repro.ensemble.EnsemFDet`. It has two execution paths, and both
run the same member loop (:func:`_run_serial`):

* ``serial`` runs every member in the calling process, as one
  multi-member native kernel call ``native_threads()`` wide (OpenMP
  across members), materializing against the in-process graph;
* ``process`` starts one process pool per attempt and sends each worker
  one chunk of members plus the parent as a **store file**: the parent's
  own file when it was opened with :meth:`GraphStore.open`, otherwise one
  spill of the compacted store (:meth:`GraphStore.export_shared`). The
  worker maps the file inside the chunk and materializes each compact
  :class:`~repro.sampling.SamplePlan` through the trusted constructor —
  zero graph bytes are pickled per ensemble member, only the ~1%-sized
  plans and a ~100-byte :class:`~repro.graph.StoreLayout` descriptor.
  Out-of-core graphs never materialize in any process.

It is a thin shell over :func:`run_members`, the fault-tolerant member
engine. Every attempt records which members ran and which failed; failed
members are retried under the :class:`~repro.parallel.FaultTolerance`
policy — per-member wall-clock timeouts (hung workers are SIGKILLed) and
up to ``max_retries`` further rounds. A retry round starts at once and
runs in the parent, except a round that retries a timed-out member: it
goes to a fresh pool, the one backend that can time it out again, which
maps a fresh spill (or the parent's own file) as round 0 did. A dead
worker switches every later round to the ``reference`` engine. Whatever
still fails after the last round comes back as a typed
:class:`MemberFailure` instead of an exception. A member's own error
fails only that member, on either backend; a parent that does not reach
the workers (a spill that cannot be written, a pool that cannot start
its workers, a failed map) fails its members with kind ``transport``, a
dead worker every chunk not yet finished (``crash``) and a passed
deadline the chunks still running (``timeout``). The spill
directory is removed on **every** exit path (normal, crash, timeout,
KeyboardInterrupt), backstopped by its handle's ``weakref.finalize``.

Because plans re-materialize deterministically, a member that fails and
then succeeds on retry produces a detection bitwise-identical to a
fault-free run — the invariant the chaos suite pins down.

Results come back in sample order regardless of backend. Every member has
one shape: a parent edge-id list (:func:`~repro.sampling.base.plan_edge_ids`)
in, and out a :class:`SampleDetection` that carries its FDET result and
the parent node ids it detected, whichever path ran it.
"""

from __future__ import annotations

import time as _time
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from ..errors import MemberTimeoutError, ReproError, WorkerCrashError
from ..faults import fault_point
from ..fdet import Fdet, FdetConfig, FdetResult, PeelEngine
from ..fdet import batched as _batched
from ..fdet._native import native_threads
from ..graph import BipartiteGraph, GraphStore, StoreLayout
from ..parallel import ExecutorMode, FaultTolerance, default_workers, kill_executor_workers
from ..graph.window import EdgeWindow
from ..parallel.executor import _process_context
from ..sampling import SamplePlan, materialize_plan
from ..sampling.base import plan_edge_ids

__all__ = [
    "detect_on_plans",
    "run_members",
    "SampleDetection",
    "MemberFailure",
    "MemberRun",
]

#: failure classification recorded per member
FAIL_CRASH = "crash"  # the worker process died under the member
FAIL_TIMEOUT = "timeout"  # the member (chunk) exceeded its wall-clock budget
FAIL_TRANSPORT = "transport"  # the parent did not reach a worker: spill, pool start or map
FAIL_ERROR = "error"  # the member's own code raised


@dataclass(frozen=True)
class SampleDetection:
    """FDET output for one sampled subgraph, and the parent nodes it detected.

    ``detected_user_indices`` / ``detected_merchant_indices`` are the sorted
    parent node indices of the truncated detection: the member's nodes (the
    parent nodes its edges touch, ascending) masked by
    :meth:`FdetResult.node_mask`. Every path sets them, and they feed the
    vote tally. ``sample_users`` / ``sample_merchants`` are the sampled
    subgraph's node labels, which the result already holds.
    """

    result: FdetResult
    detected_user_indices: np.ndarray = field(compare=False, repr=False)
    detected_merchant_indices: np.ndarray = field(compare=False, repr=False)

    @property
    def sample_users(self) -> np.ndarray:
        """The sampled subgraph's user labels (``result.user_labels``)."""
        return self.result.user_labels

    @property
    def sample_merchants(self) -> np.ndarray:
        """The sampled subgraph's merchant labels (``result.merchant_labels``)."""
        return self.result.merchant_labels


@dataclass(frozen=True)
class MemberFailure:
    """One ensemble member that still had no detection after every retry."""

    index: int
    kind: str  # one of FAIL_CRASH / FAIL_TIMEOUT / FAIL_TRANSPORT / FAIL_ERROR
    error: str
    attempts: int

    def as_dict(self) -> dict:
        """JSON-able form (for ``Detection.meta`` / state annotations)."""
        return {
            "index": self.index,
            "kind": self.kind,
            "error": self.error,
            "attempts": self.attempts,
        }


@dataclass
class MemberRun:
    """Everything one fault-tolerant fan-out produced.

    ``detections[i]`` is ``None`` exactly when member ``i`` appears in
    ``failures``. ``retry_log`` holds one JSON-able dict per attempt —
    which members ran, on what backend/transport, and which failed with
    what kind — and is deterministic for a fixed seed + fault plan.
    ``errors`` keeps the last raw exception per failed member so strict
    callers can re-raise the original object.
    """

    detections: list[SampleDetection | None]
    failures: tuple[MemberFailure, ...]
    retry_log: tuple[dict, ...]
    errors: dict[int, BaseException] | None = None

    @property
    def n_failed(self) -> int:
        """Members with no detection after all retries."""
        return len(self.failures)

    @property
    def n_retries(self) -> int:
        """Extra attempts beyond the first."""
        return max(0, len(self.retry_log) - 1)

    def survivors(self) -> list[SampleDetection]:
        """The detections that made it, in member order."""
        return [d for d in self.detections if d is not None]


def _member_detection(
    fdet: Fdet, graph: BipartiteGraph, plan: SamplePlan, window: EdgeWindow | None
) -> SampleDetection:
    """One member through ``materialize_plan`` + ``Fdet.detect``.

    The member's nodes are the parent nodes its edges touch, ascending, so
    the detection's parent node ids are those masked by its result (int64,
    as the kernel writes them, whatever the width of the parent's columns).
    """
    ids = plan_edge_ids(plan, graph, window)
    member = SamplePlan(kind="edges", edge_indices=ids, weight_scale=plan.weight_scale)
    result = fdet.detect(materialize_plan(graph, member))
    mask = result.node_mask()
    n_users = result.user_labels.size
    users = np.unique(graph.edge_users[ids]).astype(np.int64, copy=False)
    merchants = np.unique(graph.edge_merchants[ids]).astype(np.int64, copy=False)
    return SampleDetection(result, users[mask[:n_users]], merchants[mask[n_users:]])


def _batch_detect_many(
    graph: BipartiteGraph,
    batch_work: list[tuple[int, SamplePlan]],
    config: FdetConfig,
    window: EdgeWindow | None,
    threads: int,
) -> list["_batched.NativeDetection | None"]:
    """One guarded kernel call; a refusal or error falls back per member."""
    try:
        native = _batched.detect_many(
            graph, [plan for _, plan in batch_work], config, window, threads
        )
    except Exception:  # noqa: BLE001 - batch is an optimization, never a failure source
        native = None
    return native if native is not None else [None] * len(batch_work)


def _chunked(items: list, n_chunks: int) -> list[list]:
    """Split into at most ``n_chunks`` contiguous, near-equal chunks."""
    n_chunks = max(1, min(n_chunks, len(items)))
    base, extra = divmod(len(items), n_chunks)
    chunks: list[list] = []
    start = 0
    for index in range(n_chunks):
        size = base + (1 if index < extra else 0)
        chunks.append(items[start : start + size])
        start += size
    return chunks


def _classify(error: BaseException) -> str:
    """Map one member/chunk exception to a failure kind."""
    if isinstance(error, BrokenExecutor):
        return FAIL_CRASH
    if isinstance(error, TimeoutError):
        return FAIL_TIMEOUT
    return FAIL_ERROR


def _run_serial(
    graph: BipartiteGraph,
    work: list[tuple[int, SamplePlan]],
    config: FdetConfig,
    attempt: int,
    window: EdgeWindow | None,
    threads: int,
) -> tuple[dict[int, SampleDetection], dict[int, tuple[str, BaseException]]]:
    """Run ``work`` in this process: the in-parent attempt and a worker's chunk.

    Under an eligible config every member runs through one multi-member
    kernel call ``threads`` wide; each still gets its own ``member.detect``
    / ``native.peel`` fault points (fired in work order, per-member failure
    isolation), and a member the kernel cannot take (or every member, when
    the call is refused or raises) falls back to the per-member path.
    Returns ``(results, failures)`` keyed by member index.
    """
    fdet = Fdet(config)
    results: dict[int, SampleDetection] = {}
    failures: dict[int, tuple[str, BaseException]] = {}
    use_batch = _batched.config_eligible(config) and _batched.batch_kernels() is not None
    admitted: list[tuple[int, SamplePlan]] = []
    for index, plan in work:
        try:
            fault_point("member.detect", index=index, attempt=attempt)
            if use_batch:
                fault_point("native.peel", index=index, attempt=attempt)
            admitted.append((index, plan))
        except Exception as exc:  # noqa: BLE001 - recorded, retried, re-raised by strict callers
            failures[index] = (_classify(exc), exc)
    native = (
        _batch_detect_many(graph, admitted, config, window, threads)
        if use_batch
        else [None] * len(admitted)
    )
    for (index, plan), nd in zip(admitted, native):
        if nd is not None:
            results[index] = SampleDetection(
                nd.result, nd.detected_user_indices, nd.detected_merchant_indices
            )
            continue
        try:
            results[index] = _member_detection(fdet, graph, plan, window)
        except Exception as exc:  # noqa: BLE001 - same contract as above
            failures[index] = (_classify(exc), exc)
    return results, failures


def _detect_member_chunk(
    args: tuple[StoreLayout, FdetConfig, list[tuple[int, SamplePlan]], int, int]
) -> tuple[dict[int, SampleDetection], dict[int, tuple[str, BaseException]]]:
    """Run a chunk of ``(member_index, plan)`` pairs in a pool worker.

    The worker maps the parent's store file, then runs the chunk through
    :func:`_run_serial`, so the per-member injection points fire *inside*
    the worker and chaos plans exercise the real fan-out path (chunk
    pickling, store-file map, materialization) unmodified. A failed map
    fails every member of the chunk with kind ``transport``.
    """
    layout, config, members, attempt, threads = args
    try:
        fault_point("mmap.open", path=layout.path)
        store = GraphStore.open(layout.path)
        graph, window = store.to_graph(), store.edge_window()
    except Exception as exc:  # noqa: BLE001 - typed per member, retried in the parent
        return {}, {index: (FAIL_TRANSPORT, exc) for index, _ in members}
    return _run_serial(graph, members, config, attempt, window, threads)


def _gather_chunk_futures(
    futures: list[Future],
    chunks: list[list[tuple[int, SamplePlan]]],
    member_timeout: float | None,
) -> tuple[dict[int, SampleDetection], dict[int, tuple[str, BaseException]], bool]:
    """Collect per-chunk futures with one shared wall-clock deadline.

    Returns ``(results, failures, timed_out)``: each finished chunk's own
    results and failures, and a chunk-wide failure for every chunk whose
    future raised or timed out. The deadline is ``member_timeout × largest
    chunk`` — chunks run concurrently, so any chunk still unfinished then
    has spent more than its own budget. Completed futures keep their
    results even if the pool broke later.
    """
    results: dict[int, SampleDetection] = {}
    failures: dict[int, tuple[str, BaseException]] = {}
    timed_out = False
    deadline = None
    if member_timeout is not None:
        deadline = _time.monotonic() + member_timeout * max(len(c) for c in chunks)
    for chunk, future in zip(chunks, futures):
        remaining = None
        if deadline is not None:
            remaining = max(0.001, deadline - _time.monotonic())
        try:
            chunk_results, chunk_failures = future.result(timeout=remaining)
        except TimeoutError as exc:
            timed_out = True
            for index, _ in chunk:
                failures[index] = (FAIL_TIMEOUT, exc)
        except BaseException as exc:  # noqa: BLE001 - classified per kind below
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            kind = _classify(exc)
            for index, _ in chunk:
                failures[index] = (kind, exc)
        else:
            results.update(chunk_results)
            failures.update(chunk_failures)
    return results, failures, timed_out


def _run_pooled(
    graph: BipartiteGraph,
    work: list[tuple[int, SamplePlan]],
    config: FdetConfig,
    n_workers: int | None,
    attempt: int,
    tolerance: FaultTolerance,
    window: EdgeWindow | None = None,
    source_store: GraphStore | None = None,
) -> tuple[dict[int, SampleDetection], dict[int, tuple[str, BaseException]], str]:
    """One process-pool attempt. Returns ``(results, failures, transport)``.

    The attempt starts its own pool with one worker per chunk and sends
    each chunk to :func:`_detect_member_chunk` together with the layout
    of the parent's store file. ``transport`` names that file: ``"file"``
    (the parent is already a file-backed store, and workers map the same
    file) or ``"mmap"`` (the store was spilled once to a private store
    file). A spill that cannot be written or a pool that cannot start its
    workers (``OSError``) fails every member of the attempt with kind
    ``transport``; the workers already started are killed and reaped.

    The spill directory is created before the fan-out and removed in the
    ``finally`` below no matter how the attempt ends — worker crash,
    timeout kill, Ctrl-C — so no ``repro_gs_spill_*`` directory outlives
    the attempt. The handle's ``weakref.finalize`` backstops even a
    failure inside this function (on Linux the unlinked file stays valid
    for live worker maps).
    """
    workers = n_workers or default_workers(len(work))

    # the liveness columns ride inside the store's file; workers rebuild
    # the EdgeWindow from them
    store = source_store if source_store is not None else GraphStore.from_graph(graph, window)
    transport = "file" if store.layout is not None else "mmap"
    chunks = _chunked(work, workers)
    spill = executor = None
    futures: list[Future] = []
    submit_error: BrokenExecutor | None = None
    try:
        try:
            layout = store.layout
            if layout is None:
                spill = store.export_shared()
                layout = spill.layout
            # oversubscription guard: workers x in-kernel threads <= cores
            threads = native_threads(workers)
            executor = ProcessPoolExecutor(max_workers=len(chunks), mp_context=_process_context())
            for chunk in chunks:
                args = (layout, config, chunk, attempt, threads)
                futures.append(executor.submit(_detect_member_chunk, args))
        except BrokenExecutor as exc:
            submit_error = exc
        except OSError as exc:
            # a full spill volume or a worker that could not be forked. Under
            # fork the first submit starts every worker before the manager
            # thread that would join them: reap the ones that started, or
            # they block the interpreter's exit
            if executor is not None:
                kill_executor_workers(executor)
                for process in executor._processes.values():
                    process.join()
            return {}, {index: (FAIL_TRANSPORT, exc) for index, _ in work}, transport

        results, failures, timed_out = _gather_chunk_futures(
            futures, chunks[: len(futures)], tolerance.member_timeout
        )
        if submit_error is not None:
            for chunk in chunks[len(futures) :]:
                for index, _ in chunk:
                    failures[index] = (FAIL_CRASH, submit_error)
        if timed_out:
            # a hung worker cannot be joined or cancelled — reclaim it
            kill_executor_workers(executor)
        return results, failures, transport
    finally:
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)
        if spill is not None:
            spill.dispose()


def run_members(
    graph: BipartiteGraph | GraphStore,
    plans: Sequence[SamplePlan],
    config: FdetConfig,
    mode: str = ExecutorMode.SERIAL,
    n_workers: int | None = None,
    tolerance: FaultTolerance | None = None,
    window: EdgeWindow | None = None,
) -> MemberRun:
    """Fault-tolerant fan-out: every plan either detects or fails *typed*.

    Under the ``fast`` engine the eligible members of an attempt peel
    through one multi-member kernel call on both execution backends. A
    worker-crash round switches the remaining retries to
    ``engine="reference"``, the one path with no native code.

    ``graph`` may be a :class:`~repro.graph.GraphStore` instead of a
    graph — in particular one opened straight from a store file
    (:meth:`GraphStore.open`), whose windowed columns (if any) become the
    liveness overlay automatically. Process fan-outs then ship only the
    path+layout descriptor: workers map the same file lazily and the
    parent columns never materialize anywhere. A resident parent is
    spilled once per process attempt to a private store file instead.
    A spill, pool start or map that fails is a ``transport`` failure of
    the attempt's members, and the next round retries them in the parent.

    With ``window`` set, ``graph`` is the full stored graph of a rolling
    window and every member materializes through the liveness overlay
    (see :func:`repro.sampling.materialize_plan`); the overlay travels
    inside the store file on the process backend.

    The engine behind :func:`detect_on_plans` and
    :meth:`~repro.ensemble.EnsemFDet.fit`. Runs all members on the
    requested backend, then re-runs failed members for up to
    ``tolerance.max_retries`` extra rounds, each at once and in the parent
    unless it retries a timed-out member. Members that never succeed come
    back as :class:`MemberFailure` entries; the caller decides whether
    that is a quorum violation.
    """
    if mode not in ExecutorMode.ALL:
        raise ReproError(f"unknown executor mode {mode!r}; expected one of {ExecutorMode.ALL}")
    tolerance = tolerance or FaultTolerance()
    plans = list(plans)
    detections: list[SampleDetection | None] = [None] * len(plans)
    if not plans:
        return MemberRun(detections=detections, failures=(), retry_log=())

    source_store: GraphStore | None = None
    if isinstance(graph, GraphStore):
        store = graph
        own_window = store.edge_window()
        if window is None:
            window = own_window
        if (
            own_window is None
            or window is own_window
            or (window.alive is own_window.alive and window.edge_ids is own_window.edge_ids)
        ):
            # the store carries exactly the overlay being used, so process
            # attempts can ship it (or its file layout) as-is
            source_store = store
        graph = store.to_graph()

    pending = list(range(len(plans)))
    fail_info: dict[int, tuple[str, BaseException]] = {}
    attempts_of: dict[int, int] = {}
    retry_log: list[dict] = []

    for attempt in range(tolerance.max_retries + 1):
        if not pending:
            break
        timed_out = attempt > 0 and any(fail_info[i][0] == FAIL_TIMEOUT for i in pending)
        work = [(index, plans[index]) for index in pending]
        for index in pending:
            attempts_of[index] = attempt + 1

        # retry rounds run in the parent, where pool infrastructure cannot
        # fail them, and one worker or one item never pays pool overhead
        # (REPRO_WORKERS=1 pins CI to this path) — except a round that
        # retries a timed-out member: only the pool enforces member_timeout,
        # and a member that hangs again in the parent would hang the fit
        in_parent = mode == ExecutorMode.SERIAL or (attempt > 0 and not timed_out)
        if not in_parent and not timed_out:
            effective = n_workers or default_workers(len(work))
            in_parent = effective <= 1 or len(work) == 1
        if in_parent:
            results, failures = _run_serial(
                graph, work, config, attempt, window, native_threads(1)
            )
            transport = "local"
        else:
            results, failures, transport = _run_pooled(
                graph,
                work,
                config,
                n_workers,
                attempt,
                tolerance,
                window,
                source_store,
            )

        for index, detection in results.items():
            detections[index] = detection
        failed = sorted(failures)
        retry_log.append(
            {
                "attempt": attempt,
                "backend": ExecutorMode.SERIAL if in_parent else mode,
                "transport": transport,
                "engine": config.engine,
                "members": [int(i) for i in pending],
                "failed": [int(i) for i in failed],
                "kinds": {str(i): failures[i][0] for i in failed},
            }
        )
        fail_info.update(failures)
        if any(kind == FAIL_CRASH for kind, _ in failures.values()):
            # a dead worker may mean the native kernel itself crashed —
            # retries run the pure-Python engine
            config = replace(config, engine=PeelEngine.REFERENCE)
        pending = failed

    failures_out = tuple(
        MemberFailure(
            index=index,
            kind=fail_info[index][0],
            error=f"{type(fail_info[index][1]).__name__}: {fail_info[index][1]}",
            attempts=attempts_of[index],
        )
        for index in pending
    )
    return MemberRun(
        detections=detections,
        failures=failures_out,
        retry_log=tuple(retry_log),
        errors={index: fail_info[index][1] for index in pending},
    )


def _raise_first_failure(run: MemberRun) -> None:
    """Strict-mode contract: surface the first permanent failure, typed."""
    if not run.failures:
        return
    first = run.failures[0]
    indices = tuple(f.index for f in run.failures)
    if first.kind == FAIL_TIMEOUT:
        raise MemberTimeoutError(
            f"ensemble members {list(indices)} exceeded their wall-clock "
            f"budget ({first.error}); raise member_timeout, enable retries "
            "(FaultTolerance.max_retries), or use a smaller sample ratio",
            member_indices=indices,
        )
    if first.kind == FAIL_CRASH:
        raise WorkerCrashError(
            f"worker died while running ensemble members {list(indices)} "
            f"({first.error}); re-run, enable retries "
            "(FaultTolerance.max_retries), or use executor='serial' to "
            "isolate the member",
            member_indices=indices,
        )
    # member/application-level error, or a parent that did not reach the
    # workers (spill, pool start, map): re-raise the original exception so
    # strict callers keep fail-fast semantics (e.g. a DetectionError from a
    # misconfigured FdetConfig, or a spill's OSError, propagates as-is)
    original = (run.errors or {}).get(first.index)
    if original is not None:
        raise original
    raise RuntimeError(
        f"member {first.index} failed after {first.attempts} attempt(s): {first.error}"
    )


def detect_on_plans(
    graph: BipartiteGraph | GraphStore,
    plans: Sequence[SamplePlan],
    config: FdetConfig,
    mode: str = ExecutorMode.SERIAL,
    n_workers: int | None = None,
    tolerance: FaultTolerance | None = None,
    window: EdgeWindow | None = None,
) -> list[SampleDetection]:
    """Materialize every plan against ``graph`` and run FDET on it.

    Strict by default: any member that still has no result after the
    (default zero-overhead) tolerance policy raises a typed error. Pass a
    :class:`~repro.parallel.FaultTolerance` to retry instead; for
    access to partial results and the retry log, call :func:`run_members`
    directly (as :meth:`EnsemFDet.fit` does).

    Parameters
    ----------
    graph:
        The parent graph all plans refer to, or a
        :class:`~repro.graph.GraphStore` (a file-backed one ships its own
        file to process workers; see :func:`run_members`).
    plans:
        Compact per-member sample plans (see :meth:`Sampler.plan_many`).
    config:
        FDET configuration applied to every member.
    mode, n_workers:
        Executor backend (one of :attr:`ExecutorMode.ALL`) and pool size
        (default :func:`repro.parallel.default_workers`).
    tolerance:
        Retry/timeout/quorum policy; defaults to strict (no retries).
    window:
        Liveness overlay of a rolling window's stored graph.
    """
    run = run_members(
        graph,
        plans,
        config,
        mode=mode,
        n_workers=n_workers,
        tolerance=tolerance or FaultTolerance.strict(),
        window=window,
    )
    _raise_first_failure(run)
    return [detection for detection in run.detections if detection is not None]
