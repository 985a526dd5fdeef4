"""Parallel execution of FDET across sampled subgraphs (paper Fig. 2).

Two fan-out shapes live here:

* :func:`detect_on_plans` — the **zero-copy** pipeline used by
  :class:`~repro.ensemble.EnsemFDet`. The parent keeps the graph in one
  frozen :class:`~repro.graph.GraphStore`; for the process backend the
  store is exported to a shared-memory segment (or, with ``mmap=True`` /
  a file-backed store, spilled once to an mmap-able store file), workers
  attach **once per process** (pool initializer for one-shot pools, a
  process-local cache for :class:`~repro.parallel.ReusablePool` workers)
  and each compact :class:`~repro.sampling.SamplePlan` is materialized
  worker-side through the trusted constructor — zero graph bytes are
  pickled per ensemble member, only the ~1%-sized plans and a ~100-byte
  :class:`~repro.graph.StoreLayout` descriptor. A parent opened straight
  from a store file (:meth:`GraphStore.open`) ships just its path+layout:
  workers map the same file lazily, so out-of-core graphs never
  materialize in any process. Serial and thread backends skip the
  segment and materialize against the in-process graph directly.
* :func:`detect_on_samples` — the historical eager shape, mapping already
  materialized subgraphs. Kept for callers that hold real subgraphs (and
  as the reference the plan pipeline is parity-tested against).

Both are thin shells over :func:`run_members`, the fault-tolerant member
engine. Every attempt records which members ran and which failed; failed
members are retried under the :class:`~repro.parallel.FaultTolerance`
policy — per-member wall-clock timeouts (hung workers are SIGKILLed and
the pool respawned), bounded deterministic backoff, automatic backend
degradation (process → thread → serial) and shared-memory → pickled-store
fallback — and whatever still fails after the last round comes back as a
typed :class:`MemberFailure` instead of an exception. The parent-side
shared segment is unlinked on **every** exit path (normal, crash, timeout,
KeyboardInterrupt), backstopped by the store's ``weakref.finalize``.

Because plans re-materialize deterministically, a member that fails and
then succeeds on retry produces a detection bitwise-identical to a
fault-free run — the invariant the chaos suite pins down.

Results come back in sample order regardless of backend, and
``track_members=False`` skips recording each sample's node labels when no
aggregator needs them (appearance-normalised voting and the incremental
layer do; plain MVA does not).
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time as _time
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from ..errors import GraphError, InjectedFault, MemberTimeoutError, WorkerCrashError
from ..faults import fault_point
from ..fdet import Fdet, FdetConfig, FdetResult, PeelEngine
from ..fdet import batched as _batched
from ..fdet._native import native_threads
from ..graph import BipartiteGraph, GraphStore, StoreLayout, attached_store
from ..parallel import (
    ExecutorMode,
    FaultTolerance,
    ReusablePool,
    default_workers,
    kill_executor_workers,
    parallel_map,
)
from ..graph.window import EdgeWindow
from ..parallel.executor import _process_context
from ..sampling import SamplePlan, materialize_plan

__all__ = [
    "detect_on_samples",
    "detect_on_plans",
    "run_members",
    "SampleDetection",
    "MemberFailure",
    "MemberRun",
]

#: failure classification recorded per member
FAIL_CRASH = "crash"  # the worker process died under the member
FAIL_TIMEOUT = "timeout"  # the member (chunk) exceeded its wall-clock budget
FAIL_SHM = "shm"  # the worker could not attach the shared graph segment
FAIL_ERROR = "error"  # the member's own code raised


@dataclass(frozen=True)
class SampleDetection:
    """FDET output for one sampled subgraph, plus (optionally) its contents.

    ``sample_users`` / ``sample_merchants`` are only populated when the
    caller asked for member tracking — a fit at ``N=80`` would otherwise
    keep every sampled label array alive in the result for nothing.

    ``detected_user_indices`` / ``detected_merchant_indices`` are parent
    node-index arrays of the truncated detection, populated only by the
    batched native backend; they feed the native vote merge and are
    excluded from equality so detections compare identically across
    backends.
    """

    result: FdetResult
    sample_users: tuple[int, ...] | None = None
    sample_merchants: tuple[int, ...] | None = None
    detected_user_indices: np.ndarray | None = field(default=None, compare=False, repr=False)
    detected_merchant_indices: np.ndarray | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class MemberFailure:
    """One ensemble member that still had no detection after every retry."""

    index: int
    kind: str  # one of FAIL_CRASH / FAIL_TIMEOUT / FAIL_SHM / FAIL_ERROR
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


def _detection(fdet: Fdet, graph: BipartiteGraph, track_members: bool) -> SampleDetection:
    result = fdet.detect(graph)
    if not track_members:
        return SampleDetection(result=result)
    return SampleDetection(
        result=result,
        sample_users=tuple(graph.user_labels.tolist()),
        sample_merchants=tuple(graph.merchant_labels.tolist()),
    )


def _detect_one(args: tuple[BipartiteGraph, FdetConfig, bool]) -> SampleDetection:
    graph, config, track_members = args
    return _detection(Fdet(config), graph, track_members)


def _detect_chunk(
    args: tuple[FdetConfig, list[BipartiteGraph], bool]
) -> list[SampleDetection]:
    config, graphs, track_members = args
    fdet = Fdet(config)
    return [_detection(fdet, graph, track_members) for graph in graphs]


def _resolve_parent(
    source: BipartiteGraph | GraphStore | StoreLayout,
    window: EdgeWindow | None,
) -> tuple[BipartiteGraph, EdgeWindow | None]:
    """The parent graph (and liveness overlay) a worker materializes against.

    A :class:`StoreLayout` resolves through the process-local attachment
    cache (first touch maps the segment, later chunks and later fits on
    the same segment are dictionary hits); a pickled :class:`GraphStore`
    is the no-shared-memory fallback; a :class:`BipartiteGraph` arrives
    only on in-process backends. Stores carry their window columns in the
    segment itself, so ``window`` is only consulted for in-process graphs.
    """
    if isinstance(source, StoreLayout):
        store = attached_store(source)
        return store.to_graph(), store.edge_window()
    if isinstance(source, GraphStore):
        return source.to_graph(), source.edge_window()
    return source, window


def _attach_worker(layout: StoreLayout) -> None:
    """Pool initializer: map the shared segment once, at worker spawn."""
    attached_store(layout)


def _native_detection(nd: "_batched.NativeDetection", track_members: bool) -> SampleDetection:
    """Wrap one batched-kernel output like :func:`_detection` would."""
    return SampleDetection(
        result=nd.result,
        sample_users=tuple(nd.user_labels.tolist()) if track_members else None,
        sample_merchants=tuple(nd.merchant_labels.tolist()) if track_members else None,
        detected_user_indices=nd.detected_user_indices,
        detected_merchant_indices=nd.detected_merchant_indices,
    )


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


def _detect_member_chunk(
    args: tuple[
        BipartiteGraph | GraphStore | StoreLayout,
        FdetConfig,
        list[tuple[int, SamplePlan]],
        bool,
        int,
        EdgeWindow | None,
        int,
    ]
) -> list[tuple[int, SampleDetection]]:
    """Run a chunk of ``(member_index, plan)`` pairs in whatever process.

    The per-member injection points fire *inside* the worker, so chaos
    plans exercise the real fan-out path (chunk pickling, segment attach,
    materialization) unmodified. Eligible members of the chunk run through
    one multi-member kernel call (``native_threads`` wide); ineligible
    plans, ineligible configs and members whose kernel slot reports an
    allocation failure take the per-member materialize-and-detect path,
    bitwise identically.
    """
    source, config, members, track_members, attempt, window, threads = args
    graph, window = _resolve_parent(source, window)
    fdet = Fdet(config)
    use_batch = _batched.config_eligible(config) and _batched.batch_kernels() is not None
    out: list[tuple[int, SampleDetection]] = []
    batch_work: list[tuple[int, SamplePlan]] = []
    for index, plan in members:
        fault_point("member.detect", index=index, attempt=attempt)
        if use_batch and _batched.plan_eligible(plan):
            fault_point("native.peel", index=index, attempt=attempt)
            batch_work.append((index, plan))
            continue
        subgraph = materialize_plan(graph, plan, window)
        out.append((index, _detection(fdet, subgraph, track_members)))
    if batch_work:
        native = _batch_detect_many(graph, batch_work, config, window, threads)
        for (index, plan), nd in zip(batch_work, native):
            if nd is None:
                subgraph = materialize_plan(graph, plan, window)
                out.append((index, _detection(fdet, subgraph, track_members)))
            else:
                out.append((index, _native_detection(nd, track_members)))
    return out


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


def _maybe_override_engine(config: FdetConfig, engine: str | None) -> FdetConfig:
    if engine is not None and engine != config.engine:
        return replace(config, engine=engine)
    return config


def _classify(error: BaseException) -> str:
    """Map one member/chunk exception to a failure kind."""
    if isinstance(error, BrokenExecutor) or isinstance(error, WorkerCrashError):
        return FAIL_CRASH
    if isinstance(error, TimeoutError):
        return FAIL_TIMEOUT
    if isinstance(error, GraphError) and ("segment" in str(error) or "store file" in str(error)):
        return FAIL_SHM
    if isinstance(error, InjectedFault) and (
        "shm.attach" in str(error) or "mmap.open" in str(error)
    ):
        return FAIL_SHM
    return FAIL_ERROR


def _degraded_backend(mode: str, retry_round: int, tolerance: FaultTolerance) -> str:
    """Backend for retry round ``retry_round`` (0 = first attempt)."""
    if retry_round == 0 or not tolerance.degrade:
        return mode
    ladder = {
        ExecutorMode.PROCESS: (ExecutorMode.THREAD, ExecutorMode.SERIAL),
        ExecutorMode.THREAD: (ExecutorMode.SERIAL,),
        ExecutorMode.SERIAL: (),
    }[mode]
    if not ladder:
        return ExecutorMode.SERIAL
    return ladder[min(retry_round - 1, len(ladder) - 1)]


def _run_serial(
    graph: BipartiteGraph,
    work: list[tuple[int, SamplePlan]],
    config: FdetConfig,
    track_members: bool,
    attempt: int,
    window: EdgeWindow | None = None,
) -> tuple[dict[int, SampleDetection], dict[int, tuple[str, BaseException]]]:
    """In-parent attempt: no pool, no pickling, nothing left to degrade to.

    Eligible members run through one multi-member kernel call; each still
    gets its own ``member.detect`` / ``native.peel`` fault points (fired in
    work order, per-member failure isolation), and anything the kernel
    cannot take falls back to the per-member path.
    """
    fdet = Fdet(config)
    results: dict[int, SampleDetection] = {}
    failures: dict[int, tuple[str, BaseException]] = {}
    use_batch = _batched.config_eligible(config) and _batched.batch_kernels() is not None
    batch_work: list[tuple[int, SamplePlan]] = []
    for index, plan in work:
        try:
            fault_point("member.detect", index=index, attempt=attempt)
            if use_batch and _batched.plan_eligible(plan):
                fault_point("native.peel", index=index, attempt=attempt)
                batch_work.append((index, plan))
                continue
            results[index] = _detection(
                fdet, materialize_plan(graph, plan, window), track_members
            )
        except Exception as exc:  # noqa: BLE001 - recorded, retried, re-raised by strict callers
            failures[index] = (_classify(exc), exc)
    if batch_work:
        native = _batch_detect_many(graph, batch_work, config, window, native_threads(1))
        for (index, plan), nd in zip(batch_work, native):
            if nd is not None:
                results[index] = _native_detection(nd, track_members)
                continue
            try:
                results[index] = _detection(
                    fdet, materialize_plan(graph, plan, window), track_members
                )
            except Exception as exc:  # noqa: BLE001 - same contract as above
                failures[index] = (_classify(exc), exc)
    return results, failures


def _gather_chunk_futures(
    futures: list[Future],
    chunks: list[list[tuple[int, SamplePlan]]],
    member_timeout: float | None,
) -> tuple[dict[int, SampleDetection], dict[int, tuple[str, BaseException]], bool]:
    """Collect per-chunk futures with one shared wall-clock deadline.

    Returns ``(results, failures, timed_out)``. The deadline is
    ``member_timeout × largest chunk`` — chunks run concurrently, so any
    chunk still unfinished then has spent more than its own budget.
    Completed futures keep their results even if the pool broke later.
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
            for index, detection in future.result(timeout=remaining):
                results[index] = detection
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
    return results, failures, timed_out


def _run_pooled(
    graph: BipartiteGraph,
    work: list[tuple[int, SamplePlan]],
    config: FdetConfig,
    backend: str,
    n_workers: int | None,
    pool: ReusablePool | None,
    track_members: bool,
    use_shm: bool,
    attempt: int,
    tolerance: FaultTolerance,
    window: EdgeWindow | None = None,
    use_mmap: bool = False,
    source_store: GraphStore | None = None,
) -> tuple[dict[int, SampleDetection], dict[int, tuple[str, BaseException]], str]:
    """One thread/process attempt. Returns ``(results, failures, transport)``.

    ``transport`` names what actually carried the parent to the workers:
    ``"file"`` (the parent is already a file-backed store — its path+layout
    descriptor is shipped and workers map the same file), ``"mmap"`` (the
    store was spilled once to a temporary store file), ``"shm"`` (shared
    segment), ``"pickle"`` (the columnar store pickled per worker chunk)
    or ``"local"`` (thread backend, no transport at all).

    The shared segment / spill file (process backend) is created before
    the fan-out and removed in the ``finally`` below no matter how the
    attempt ends — worker crash, timeout kill, Ctrl-C — so ``/dev/shm``
    and the spill dir can never accumulate orphans. ``weakref.finalize``
    on the segment handle backstops even a failure inside this function
    (on Linux the unlinked spill file stays valid for live worker maps).
    """
    process = backend == ExecutorMode.PROCESS
    workers = (
        pool.n_workers
        if pool is not None and pool.mode == backend
        else (n_workers or default_workers(len(work)))
    )

    source: BipartiteGraph | GraphStore | StoreLayout = graph
    shared = None
    spill_dir: str | None = None
    initializer = None
    initargs: tuple = ()
    plan_window = window
    transport = "local"
    if process:
        # the liveness columns ride inside the store/segment/file; workers
        # rebuild the EdgeWindow from the attached columns
        store = (
            source_store
            if source_store is not None
            else GraphStore.from_graph(graph, window)
        )
        source = store
        plan_window = None
        transport = "pickle"
        if use_mmap and store.layout is not None and store.layout.kind == "file":
            # already file-backed: ship only the path+layout descriptor
            source = store.layout
            initializer, initargs = _attach_worker, (store.layout,)
            transport = "file"
        elif use_mmap:
            spill_dir = tempfile.mkdtemp(prefix="repro_gs_spill_")
            try:
                layout = store.save(os.path.join(spill_dir, "graph.store"))
            except OSError:  # pragma: no cover - spill volume full/unwritable
                shutil.rmtree(spill_dir, ignore_errors=True)
                spill_dir = None
            else:
                source = layout
                initializer, initargs = _attach_worker, (layout,)
                transport = "mmap"
        if transport == "pickle" and use_shm:
            try:
                shared = store.export_shared()
            except OSError:  # pragma: no cover - no usable /dev/shm on this host
                shared = None
            else:
                source = shared.layout
                initializer, initargs = _attach_worker, (shared.layout,)
                transport = "shm"

    own_executor = None
    borrowed_pool = pool is not None and pool.mode == backend
    try:
        if process:
            chunks = _chunked(work, workers)
        else:
            # threads share memory: per-member tasks give the finest retry
            # granularity at no pickling cost
            chunks = [[member] for member in work]
        # oversubscription guard: workers x in-kernel threads <= cores
        threads = native_threads(workers)
        args = [
            (source, config, chunk, track_members, attempt, plan_window, threads)
            for chunk in chunks
        ]

        if borrowed_pool:
            submit = pool.submit
        elif process:
            own_executor = ProcessPoolExecutor(
                max_workers=min(workers, len(chunks)),
                mp_context=_process_context(),
                initializer=initializer,
                initargs=initargs,
            )
            submit = own_executor.submit
        else:
            own_executor = ThreadPoolExecutor(max_workers=min(workers, len(chunks)))
            submit = own_executor.submit

        futures: list[Future] = []
        submit_error: BrokenExecutor | None = None
        try:
            for arg in args:
                futures.append(submit(_detect_member_chunk, arg))
        except BrokenExecutor as exc:
            submit_error = exc

        results, failures, timed_out = _gather_chunk_futures(
            futures, chunks[: len(futures)], tolerance.member_timeout
        )
        if submit_error is not None:
            for chunk in chunks[len(futures) :]:
                for index, _ in chunk:
                    failures[index] = (FAIL_CRASH, submit_error)
        if timed_out:
            # a hung worker cannot be joined or cancelled — reclaim it
            if borrowed_pool:
                pool.kill_workers()
            elif own_executor is not None:
                kill_executor_workers(own_executor)
        broken = timed_out or any(kind == FAIL_CRASH for kind, _ in failures.values())
        if broken and borrowed_pool:
            pool.respawn()
        return results, failures, transport
    finally:
        if own_executor is not None:
            own_executor.shutdown(wait=False, cancel_futures=True)
        if shared is not None:
            shared.dispose()
        if spill_dir is not None:
            shutil.rmtree(spill_dir, ignore_errors=True)


def run_members(
    graph: BipartiteGraph | GraphStore,
    plans: Sequence[SamplePlan],
    config: FdetConfig,
    mode: str = ExecutorMode.SERIAL,
    n_workers: int | None = None,
    engine: str | None = None,
    pool: ReusablePool | None = None,
    track_members: bool = True,
    shared_memory: bool = True,
    tolerance: FaultTolerance | None = None,
    window: EdgeWindow | None = None,
    mmap: bool = False,
) -> MemberRun:
    """Fault-tolerant fan-out: every plan either detects or fails *typed*.

    Under the ``fast`` engine the eligible members of an attempt peel
    through one multi-member kernel call on every execution backend. This
    composes with the degradation ladder: a worker-crash round switches the
    remaining retries to ``engine="reference"``, the one path with no
    native code, the way shm failures disable the shared segment.

    ``graph`` may be a :class:`~repro.graph.GraphStore` instead of a
    graph — in particular one opened straight from a store file
    (:meth:`GraphStore.open`), whose windowed columns (if any) become the
    liveness overlay automatically. Process fan-outs then ship only the
    path+layout descriptor: workers map the same file lazily and the
    parent columns never materialize anywhere. ``mmap=True`` requests the
    same file transport for a resident parent by spilling the (compacted)
    store to a temporary file once per attempt instead of exporting a
    shared segment. Either file transport degrades to the pickled store
    after an ``mmap.open``/attach failure, exactly like shm does.

    With ``window`` set, ``graph`` is the full stored graph of a rolling
    window and every member materializes through the liveness overlay
    (see :func:`repro.sampling.materialize_plan`); the overlay travels
    through the shared segment / store file / pickled store on process
    backends.

    The engine behind :func:`detect_on_plans` and
    :meth:`~repro.ensemble.EnsemFDet.fit`. Runs all members on the
    requested backend, then re-runs failed members for up to
    ``tolerance.max_retries`` extra rounds with deterministic backoff,
    degrading the backend (process → thread → serial) and falling back
    from shared memory to the pickled store when the failure kinds call
    for it. Members that never succeed come back as
    :class:`MemberFailure` entries; the caller decides whether that is a
    quorum violation.
    """
    config = _maybe_override_engine(config, engine)
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
    use_shm = shared_memory
    # a file-backed parent defaults to the file transport even without
    # mmap=True: its bytes are already on disk, re-exporting them would
    # defeat the point of opening out-of-core
    use_mmap = mmap or (
        source_store is not None
        and source_store.layout is not None
        and source_store.layout.kind == "file"
    )

    for attempt in range(tolerance.max_retries + 1):
        if not pending:
            break
        backoff = tolerance.backoff_for(attempt)
        if backoff:
            _time.sleep(backoff)
        backend = _degraded_backend(mode, attempt, tolerance)
        work = [(index, plans[index]) for index in pending]
        for index in pending:
            attempts_of[index] = attempt + 1

        # mirror parallel_map's fast path: one worker or one item never
        # pays pool overhead (REPRO_WORKERS=1 pins CI to this path)
        in_parent = backend == ExecutorMode.SERIAL
        if not in_parent and pool is None:
            effective = n_workers or default_workers(len(work))
            in_parent = effective <= 1 or len(work) == 1
        if in_parent:
            results, failures = _run_serial(
                graph, work, config, track_members, attempt, window
            )
            transport = "local"
        else:
            attempt_pool = pool if (pool is not None and pool.mode == backend) else None
            results, failures, transport = _run_pooled(
                graph,
                work,
                config,
                backend,
                n_workers,
                attempt_pool,
                track_members,
                use_shm,
                attempt,
                tolerance,
                window,
                use_mmap,
                source_store,
            )

        for index, detection in results.items():
            detections[index] = detection
        failed = sorted(failures)
        retry_log.append(
            {
                "attempt": attempt,
                "backend": ExecutorMode.SERIAL if in_parent else backend,
                "shared_memory": transport == "shm",
                "transport": transport,
                "engine": config.engine,
                "members": [int(i) for i in pending],
                "failed": [int(i) for i in failed],
                "kinds": {str(i): failures[i][0] for i in failed},
            }
        )
        fail_info.update(failures)
        if any(kind == FAIL_SHM for kind, _ in failures.values()):
            # the zero-copy transport itself is suspect (segment attach or
            # file map failed) — pickled store next
            use_shm = False
            use_mmap = False
        if any(kind == FAIL_CRASH for kind, _ in failures.values()):
            # a dead worker may mean the native kernel itself crashed —
            # retries run the pure-Python engine, like shm degrades
            config = _maybe_override_engine(config, PeelEngine.REFERENCE)
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
            f"({first.error}); the pool was respawned — re-run, enable "
            "retries (FaultTolerance.max_retries), or use executor='serial' "
            "to isolate the member",
            member_indices=indices,
        )
    # member/application-level error (including shm-attach): re-raise the
    # original exception so strict callers keep fail-fast semantics (e.g.
    # a DetectionError from a misconfigured FdetConfig propagates as-is)
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
    engine: str | None = None,
    pool: ReusablePool | None = None,
    track_members: bool = True,
    shared_memory: bool = True,
    tolerance: FaultTolerance | None = None,
    window: EdgeWindow | None = None,
    mmap: bool = False,
) -> list[SampleDetection]:
    """Materialize every plan against ``graph`` and run FDET on it.

    Strict by default: any member that still has no result after the
    (default zero-overhead) tolerance policy raises a typed error. Pass a
    :class:`~repro.parallel.FaultTolerance` to retry/degrade instead; for
    access to partial results and the retry log, call :func:`run_members`
    directly (as :meth:`EnsemFDet.fit` does).

    Parameters
    ----------
    graph:
        The parent graph all plans refer to.
    plans:
        Compact per-member sample plans (see :meth:`Sampler.plan_many`).
    config:
        FDET configuration applied to every member.
    mode, n_workers:
        Executor backend and pool size (see :func:`repro.parallel.parallel_map`).
    engine:
        Optional peeling-engine override applied on top of ``config.engine``.
    pool:
        Optional :class:`ReusablePool` of warm workers to run on.
    track_members:
        Record each sample's node labels on the detections (needed by
        appearance-normalised voting and the incremental layer).
    shared_memory:
        For process backends, export the parent once to a shared segment
        instead of pickling it into every worker. Falls back to shipping
        the columnar store (pickled once per worker chunk) when the
        platform refuses the segment.
    tolerance:
        Retry/timeout/degradation policy; defaults to strict (no retries).
    mmap:
        For process backends, ship the parent as an mmap-able store file
        (a path+layout descriptor) instead of a shared segment — the
        out-of-core transport. A ``graph`` that is already a file-backed
        :class:`~repro.graph.GraphStore` uses this transport implicitly;
        see :func:`run_members`.
    """
    run = run_members(
        graph,
        plans,
        config,
        mode=mode,
        n_workers=n_workers,
        engine=engine,
        pool=pool,
        track_members=track_members,
        shared_memory=shared_memory,
        tolerance=tolerance or FaultTolerance.strict(),
        window=window,
        mmap=mmap,
    )
    _raise_first_failure(run)
    return [detection for detection in run.detections if detection is not None]


def detect_on_samples(
    samples: list[BipartiteGraph],
    config: FdetConfig,
    mode: str = ExecutorMode.SERIAL,
    n_workers: int | None = None,
    engine: str | None = None,
    pool: ReusablePool | None = None,
    track_members: bool = True,
) -> list[SampleDetection]:
    """Run FDET over already-materialized subgraphs (the eager shape).

    Prefer :func:`detect_on_plans` when the samples came from a
    :class:`~repro.sampling.Sampler` — it ships ~1% of the bytes. This
    entry point remains for callers holding real subgraphs and as the
    reference semantics the plan pipeline is tested against.
    """
    config = _maybe_override_engine(config, engine)
    if not samples:
        return []

    chunked = mode == ExecutorMode.PROCESS or (
        pool is not None and pool.mode == ExecutorMode.PROCESS
    )
    if not chunked:
        return parallel_map(
            _detect_one,
            [(sample, config, track_members) for sample in samples],
            mode=mode,
            n_workers=n_workers,
            pool=pool,
        )

    workers = pool.n_workers if pool is not None else (n_workers or default_workers(len(samples)))
    chunks = _chunked(samples, workers)
    chunk_results = parallel_map(
        _detect_chunk,
        [(config, chunk, track_members) for chunk in chunks],
        mode=mode,
        n_workers=min(workers, len(chunks)),
        pool=pool,
    )
    return [detection for chunk in chunk_results for detection in chunk]
