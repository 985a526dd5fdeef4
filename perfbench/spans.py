"""Span recorder and layer wrappers for the traced benchmark run.

Spans are recorded from the benchmark's own code: :func:`install` patches
the public entry point of each layer *where it is looked up* (a module that
imported a function by name holds its own reference, so both the defining
module and every importer are patched) for the life of the process. Nothing
under ``src/`` is modified.

A span is ``(id, parent, name, start, end)`` on ``time.monotonic()`` —
``CLOCK_MONOTONIC`` on Linux, so spans dumped by the server process line up
with the client's timed region. Parents come from a per-thread stack, so a
layer's self time is its duration minus the part covered by its children.
Counters and per-event samples are recorded at the same boundaries, each
stamped with the time it was taken so every figure can be restricted to the
timed region.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

__all__ = [
    "PER_LAYER_UNITS",
    "Recorder",
    "install",
    "install_run_capture",
    "layer_metrics",
    "vote_fingerprint",
]


def vote_fingerprint(user_votes, merchant_votes) -> str:
    """Digest of a vote table; equal tables give equal digests."""
    payload = json.dumps(
        [
            sorted((int(k), int(v)) for k, v in user_votes.items()),
            sorted((int(k), int(v)) for k, v in merchant_votes.items()),
        ]
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class Recorder:
    """In-memory spans, counters, samples and labels; dumped once at the end."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.samples: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.labels: dict[str, set] = defaultdict(set)
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def span(self, name: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.monotonic()
        try:
            yield
        finally:
            end = time.monotonic()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end))

    def sample(self, name: str, value: float, at: float | None = None) -> None:
        """One per-event observation, stamped so it can be windowed."""
        self.samples[name].append((time.monotonic() if at is None else at, value))

    def count(self, name: str, value: float = 1.0) -> None:
        """A counter increment; counts are stamped samples summed per region."""
        self.sample(name, value)

    def label(self, name: str, value: str) -> None:
        self.labels[name].add(value)

    def dump(self) -> dict:
        return {
            "spans": list(self.spans),
            "samples": {k: list(v) for k, v in self.samples.items()},
            "labels": {k: sorted(v) for k, v in self.labels.items()},
        }


# ----------------------------------------------------------------------
# patching
# ----------------------------------------------------------------------


def _patch(owner, attr: str, make) -> None:
    """Replace ``owner.attr`` with ``make(original)``, keeping method kinds."""
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))


def _spanned(rec: Recorder, name: str, after=None):
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with rec.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    return make


def _run_done(rec: Recorder):
    """Attempt/retry/failure counters and the backend and transport that ran."""

    def after(run, _args):
        rec.count("runner.attempts", len(run.retry_log))
        rec.count("runner.retries", run.n_retries)
        rec.count("runner.failed_members", run.n_failed)
        for entry in run.retry_log:
            rec.label("runner.backend", entry["backend"])
            rec.label("runner.transport", entry["transport"])

    return after


def install_run_capture(rec: Recorder) -> None:
    """Untraced runs: only the runner's counters and labels, no spans.

    The serving workload reads its retries and the backend and transport
    that ran from here, since ``/ingest`` responses do not carry them.
    """
    from repro.ensemble import ensemfdet, incremental

    for module in (ensemfdet, incremental):
        _patch(module, "run_members", lambda fn: _counted(fn, _run_done(rec)))


def install(rec: Recorder) -> None:
    """Wrap each layer's public entry points with spans and counters."""
    import repro.ensemble as ensemble_pkg
    from repro.ensemble import ensemfdet, incremental, runner, voting
    from repro.fdet import batched
    from repro.graph import GraphAccumulator, GraphStore
    from repro.sampling import Sampler, StableEdgeSampler
    from repro.serve import http, service, snapshot

    # -- sampling ------------------------------------------------------
    def plans_done(plans, _args):
        for plan in plans:
            if plan.kind == "edges":
                rec.count("sampling.edges_planned", int(plan.edge_indices.size))

    def stripe_plan_done(plan, _args):
        rec.count("sampling.edges_planned", int(plan.stripe_row.sum()) * plan.stripe)

    _patch(Sampler, "plan_many", _spanned(rec, "sampling.plan", plans_done))
    _patch(StableEdgeSampler, "plan_many", _spanned(rec, "sampling.plan", plans_done))
    _patch(StableEdgeSampler, "stripe_inclusion", _spanned(rec, "sampling.plan"))
    _patch(StableEdgeSampler, "stripe_plan", _spanned(rec, "sampling.plan", stripe_plan_done))

    # -- fdet.batched (runner and ensemfdet look these up on the module) --
    def detect_many_done(out, args):
        rec.count("fdet.members", len(args[1]))

    def edge_ids_done(ids, _args):
        rec.count("fdet.edges_in", int(ids.size))

    _patch(batched, "detect_many", _spanned(rec, "fdet.detect_many", detect_many_done))
    _patch(batched, "plan_edge_ids", lambda fn: _counted(fn, edge_ids_done))
    _patch(batched, "vote_counters", _spanned(rec, "voting.tally"))

    # -- voting --------------------------------------------------------
    _patch(voting.VoteTable, "from_detections", _spanned(rec, "voting.tally"))
    for module in (voting, ensemfdet, incremental, ensemble_pkg):
        if hasattr(module, "majority_vote"):
            _patch(module, "majority_vote", _spanned(rec, "voting.majority_vote"))

    # -- runner (imported by name into ensemfdet and incremental) -------
    for module in (runner, ensemfdet, incremental):
        _patch(module, "run_members", _spanned(rec, "runner.run_members", _run_done(rec)))

    # -- graph.store ---------------------------------------------------
    def exported(shared, _args):
        rec.count("store.bytes_shipped", int(shared.layout.nbytes))

    _patch(GraphStore, "from_graph", _spanned(rec, "store.export"))
    _patch(GraphStore, "export_shared", _spanned(rec, "store.export", exported))

    # -- graph.window (GraphAccumulator) --------------------------------
    def compacted(_did, args):
        dead = args[0].dead_fraction
        rec.sample("window.stored_over_live", 1.0 / max(1e-12, 1.0 - dead))

    for op in ("append", "retract", "expire", "compact"):
        _patch(GraphAccumulator, op, _spanned(rec, f"window.{op}"))
    _patch(GraphAccumulator, "maybe_compact", lambda fn: _counted(fn, compacted))

    # -- ensemble.incremental ------------------------------------------
    def updated(report, _args):
        rec.count("incremental.members_refreshed", report.n_refreshed)
        rec.sample(
            "incremental.refresh_fraction",
            len(report.refreshed_samples) / report.n_samples,
        )

    _patch(
        incremental.IncrementalEnsemFDet,
        "update",
        _spanned(rec, "incremental.update", updated),
    )

    # -- serve -----------------------------------------------------------
    def submit(fn):
        @functools.wraps(fn)
        def wrapper(self, job, *args):
            queued = time.monotonic()

            def timed_job(*job_args):
                started = time.monotonic()
                rec.sample("serve.queue_wait_ms", (started - queued) * 1e3, at=started)
                return job(*job_args)

            return fn(self, timed_job, *args)

        return wrapper

    def read(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.monotonic()
            result = fn(*args, **kwargs)
            rec.sample("serve.read_ms", (time.monotonic() - started) * 1e3, at=started)
            return result

        return wrapper

    def dispatch(fn):
        # the event loop interleaves requests across awaits, so dispatch is
        # recorded as a per-request sample, not as a parent span
        @functools.wraps(fn)
        async def wrapper(self, method, target, body):
            started = time.monotonic()
            try:
                return await fn(self, method, target, body)
            finally:
                if not target.startswith("/ingest"):
                    elapsed = (time.monotonic() - started) * 1e3
                    rec.sample("serve.dispatch_read_ms", elapsed, at=started)

        return wrapper

    _patch(service.DetectionService, "_submit", submit)
    _patch(service.DetectionService, "_apply_ingest", _spanned(rec, "serve.apply_ingest"))
    _patch(snapshot.ScoreSnapshot, "capture", _spanned(rec, "serve.snapshot_capture"))
    _patch(snapshot.ScoreSnapshot, "top", read)
    _patch(snapshot.ScoreSnapshot, "score_of", read)
    _patch(http.ScoringServer, "_dispatch", dispatch)


def call_cost_s(calls: int = 20_000) -> float:
    """Extra seconds one wrapped call costs over a bare call.

    Multiplied by the wrapped calls per operation, this is the tracing cost
    derived from the wrappers themselves. Unlike the traced-minus-untraced
    wall it does not carry the host's drift between the two runs.
    """
    rec = Recorder()

    def bare(value):
        return value

    wrapped = _spanned(rec, "probe", lambda _result, _args: rec.count("probe.calls"))(bare)

    def best(fn) -> float:
        times = []
        for _ in range(3):
            started = time.perf_counter()
            for i in range(calls):
                fn(i)
            times.append(time.perf_counter() - started)
        return min(times)

    return max(0.0, (best(wrapped) - best(bare)) / calls)


def _counted(fn, after):
    """Counter-only wrapper (no span) for calls too fine-grained to time."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        after(result, args)
        return result

    return wrapper


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------

#: every per-layer metric the traced run reports, with its unit
PER_LAYER_UNITS = {
    "sampling.plan_s": "s",
    "sampling.edges_planned": "count",
    "fdet.detect_many_s": "s",
    "fdet.members": "count",
    "fdet.edges_in": "count",
    "fdet.edges_per_s": "1/s",
    "voting.tally_s": "s",
    "voting.majority_vote_s": "s",
    "runner.run_members_self_s": "s",
    "runner.attempts": "count",
    "runner.retries": "count",
    "runner.failed_members": "count",
    "store.export_s": "s",
    "store.bytes_shipped": "bytes",
    "window.append_s": "s",
    "window.retract_s": "s",
    "window.expire_s": "s",
    "window.compact_s": "s",
    "window.stored_over_live": "ratio",
    "incremental.update_s": "s",
    "incremental.members_refreshed": "count",
    "incremental.refresh_fraction": "ratio",
    "incremental.merge_s": "s",
    "serve.queue_wait_ms": "ms",
    "serve.snapshot_capture_ms": "ms",
    "serve.http_ms": "ms",
    "serve.read_ms": "ms",
    "serve.generator_lag_ms": "ms",
    "pool.worker_own_rss_mb": "MB",
    "unattributed_s": "s",
    "trace.overhead_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.calls_per_op": "count",
    "trace.derived_overhead_ms": "ms",
}

#: span name -> self-time metric
_SELF_TIME = {
    "sampling.plan": "sampling.plan_s",
    "fdet.detect_many": "fdet.detect_many_s",
    "voting.tally": "voting.tally_s",
    "voting.majority_vote": "voting.majority_vote_s",
    "runner.run_members": "runner.run_members_self_s",
    "store.export": "store.export_s",
    "window.append": "window.append_s",
    "window.retract": "window.retract_s",
    "window.expire": "window.expire_s",
    "window.compact": "window.compact_s",
    "incremental.update": "incremental.merge_s",
}

_PER_OP_COUNTS = (
    "sampling.edges_planned",
    "fdet.members",
    "fdet.edges_in",
    "runner.attempts",
    "runner.retries",
    "runner.failed_members",
    "store.bytes_shipped",
    "incremental.members_refreshed",
)


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def self_times(spans, t0: float, t1: float) -> tuple[dict[str, float], dict[str, float]]:
    """Per-name ``(self seconds, total seconds)`` of spans starting in ``[t0, t1]``."""
    child_time: dict[int, float] = defaultdict(float)
    for _id, parent, _name, start, end in spans:
        if parent:
            child_time[parent] += end - start
    own: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    for span_id, _parent, name, start, end in spans:
        if t0 <= start <= t1:
            own[name] += (end - start) - child_time[span_id]
            total[name] += end - start
    return own, total


def layer_metrics(dump: dict, t0: float, t1: float, n_ops: int) -> dict[str, float]:
    """Per-layer metrics over the timed region ``[t0, t1]``, per timed op.

    Times (``*_s``) and counts are means per timed operation (a fit, or an
    ingest on the serving workload); ``*_ms`` are medians per event; rates
    and ratios are taken over the whole region.
    """
    n_ops = max(1, n_ops)
    own, total = self_times(dump["spans"], t0, t1)
    # a layer the workload never enters reads 0; the caller fills the
    # metrics measured outside the spans (RSS, client-side times, overhead)
    out = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    out.update({metric: own.get(span, 0.0) / n_ops for span, metric in _SELF_TIME.items()})
    out["incremental.update_s"] = total.get("incremental.update", 0.0) / n_ops

    def windowed(name):
        return [v for at, v in dump["samples"].get(name, ()) if t0 <= at <= t1]

    for name in _PER_OP_COUNTS:
        out[name] = sum(windowed(name)) / n_ops
    kernel = total.get("fdet.detect_many", 0.0)
    out["fdet.edges_per_s"] = sum(windowed("fdet.edges_in")) / kernel if kernel else 0.0

    out["window.stored_over_live"] = _median(windowed("window.stored_over_live"))
    fractions = windowed("incremental.refresh_fraction")
    out["incremental.refresh_fraction"] = statistics.fmean(fractions) if fractions else 0.0
    for name in ("serve.queue_wait_ms", "serve.read_ms"):
        out[name] = _median(windowed(name))
    captures = [end - start for _i, _p, name, start, end in dump["spans"]
                if name == "serve.snapshot_capture" and t0 <= start <= t1]
    out["serve.snapshot_capture_ms"] = _median(captures) * 1e3

    # every span and every stamped sample is one wrapped call's record
    calls = sum(1 for span in dump["spans"] if t0 <= span[3] <= t1) + sum(
        len(windowed(name)) for name in dump["samples"]
    )
    out["trace.calls_per_op"] = calls / n_ops
    out["trace.derived_overhead_ms"] = out["trace.calls_per_op"] * call_cost_s() * 1e3
    return out
