"""The serving concurrency core: one writer thread, wait-free readers.

:class:`DetectionService` owns a fitted
:class:`~repro.ensemble.IncrementalEnsemFDet` and enforces the service's
one invariant:

    **Reads never observe a partially-merged vote table.**

All mutations — ingest deltas, disk snapshots — are serialised through a
single worker thread (a one-slot :class:`~concurrent.futures.ThreadPoolExecutor`,
so callers get real futures to await). Each successful update captures a
fresh immutable :class:`~repro.serve.snapshot.ScoreSnapshot` and publishes
it with a single attribute store (atomic under the GIL); every read
answers from whatever snapshot reference it grabbed first. A failed
update (injected fault past the tolerance budget, quorum loss, bad delta)
publishes nothing — readers keep the pre-update view.

The fault layer's injection points fire unmodified inside the worker
thread (``member.detect`` during updates, ``state.write`` during
:meth:`save_state`), which is what lets chaos tests drive failures
through the HTTP path of a live server.
"""

from __future__ import annotations

import math
import numbers
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..ensemble import IncrementalEnsemFDet, UpdateReport
from ..errors import DetectionError, QuorumError, StateError
from .snapshot import ScoreSnapshot

__all__ = ["DetectionService", "ServiceStats"]


@dataclass(frozen=True)
class ServiceStats:
    """Monotonic counters of one service's lifetime (see ``GET /stats``)."""

    updates_applied: int
    updates_failed: int
    edges_ingested: int
    edges_retracted: int
    edges_expired: int
    members_refreshed: int
    snapshots_saved: int
    pending_jobs: int
    uptime_seconds: float

    def as_dict(self) -> dict:
        return {
            "updates_applied": self.updates_applied,
            "updates_failed": self.updates_failed,
            "edges_ingested": self.edges_ingested,
            "edges_retracted": self.edges_retracted,
            "edges_expired": self.edges_expired,
            "members_refreshed": self.members_refreshed,
            "snapshots_saved": self.snapshots_saved,
            "pending_jobs": self.pending_jobs,
            "uptime_seconds": self.uptime_seconds,
        }


def _as_delta_array(values, name: str) -> np.ndarray | None:
    """Validate one parallel delta column into an int64 array.

    A label must be a whole number inside int64: a cast would silently turn
    ``1.5`` into label 1, and ``NaN``, ``inf`` or ``1e30`` into -2**63.
    """
    if values is None:
        return None
    array = np.asarray(values)
    if array.ndim != 1:
        raise DetectionError(f"ingest field {name!r} must be a flat array")
    if not array.size:
        return array.astype(np.int64)
    if np.issubdtype(array.dtype, np.floating):
        valid = (array == np.trunc(array)) & (array >= -(2.0**63)) & (array < 2.0**63)
    elif np.issubdtype(array.dtype, np.integer):
        valid = array <= np.iinfo(np.int64).max  # a uint64 column may not fit
    else:
        raise DetectionError(f"ingest field {name!r} must be numeric labels")
    if not valid.all():
        raise DetectionError(
            f"ingest field {name!r} must hold whole int64 labels, got {array[~valid][0]!r}"
        )
    return array.astype(np.int64, copy=False)


class DetectionService:
    """Serialised updates + snapshot-isolated reads over a warm detector.

    Parameters
    ----------
    detector:
        A **fitted** :class:`~repro.ensemble.IncrementalEnsemFDet` (cold
        fit or loaded state). The service takes ownership: nothing else
        may mutate it while the service lives.
    state_path:
        Default target of :meth:`save_state` (``POST /snapshot``); also
        saved on :meth:`close` when set.
    default_threshold:
        MVA threshold used by reads that do not name one. Defaults to the
        ``watch`` CLI's ``max(1, N // 4)``.
    """

    def __init__(
        self,
        detector: IncrementalEnsemFDet,
        state_path: str | Path | None = None,
        default_threshold: int | None = None,
    ) -> None:
        if not detector.is_fitted:
            raise DetectionError(
                "DetectionService needs a fitted detector; call fit() or load() first"
            )
        self._detector = detector
        self.state_path = Path(state_path) if state_path is not None else None
        if default_threshold is None:
            default_threshold = max(1, detector.config.n_samples // 4)
        self._default_threshold = int(default_threshold)
        self._worker = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-writer"
        )
        self._closed = False
        self._started = time.monotonic()
        self._counter_lock = threading.Lock()
        self._updates_applied = 0
        self._updates_failed = 0
        self._edges_ingested = 0
        self._edges_retracted = 0
        self._edges_expired = 0
        self._members_refreshed = 0
        self._snapshots_saved = 0
        self._pending = 0
        # version 1 = the state the service booted from
        self._snapshot = ScoreSnapshot.capture(detector, 1, self._default_threshold)

    # ------------------------------------------------------------------
    # reads (any thread, wait-free)
    # ------------------------------------------------------------------

    @property
    def snapshot(self) -> ScoreSnapshot:
        """The current immutable snapshot (atomic reference read)."""
        return self._snapshot

    @property
    def default_threshold(self) -> int:
        return self._default_threshold

    @property
    def windowed(self) -> bool:
        """Whether the detector's window has a bound (edges can expire)."""
        return self._detector.window_config.bounded

    def stats(self) -> ServiceStats:
        with self._counter_lock:
            return ServiceStats(
                updates_applied=self._updates_applied,
                updates_failed=self._updates_failed,
                edges_ingested=self._edges_ingested,
                edges_retracted=self._edges_retracted,
                edges_expired=self._edges_expired,
                members_refreshed=self._members_refreshed,
                snapshots_saved=self._snapshots_saved,
                pending_jobs=self._pending,
                uptime_seconds=time.monotonic() - self._started,
            )

    def health(self) -> dict:
        """Liveness + degradation, cheap enough for an aggressive prober."""
        snapshot = self._snapshot
        degraded = bool(snapshot.stale_members)
        return {
            "status": "degraded" if degraded else "ok",
            "fitted": True,
            "n_samples": snapshot.n_samples,
            "stale_members": list(snapshot.stale_members),
            "snapshot_version": snapshot.version,
            "windowed": self.windowed,
            "uptime_seconds": time.monotonic() - self._started,
        }

    # ------------------------------------------------------------------
    # writes (serialised through the worker thread)
    # ------------------------------------------------------------------

    def submit_ingest(
        self,
        users=None,
        merchants=None,
        weights=None,
        *,
        remove_users=None,
        remove_merchants=None,
        timestamp: float | None = None,
    ) -> "Future[dict]":
        """Queue one edge delta; the future resolves to the report dict.

        Validation of array shapes happens in the caller's thread (bad
        requests fail fast, without occupying the writer); the update and
        the snapshot swap happen in the writer thread.
        """
        users = _as_delta_array(users, "users")
        merchants = _as_delta_array(merchants, "merchants")
        if (users is None) != (merchants is None):
            raise DetectionError("ingest needs users and merchants together")
        if users is not None and users.size != merchants.size:
            raise DetectionError(
                f"ingest column length mismatch: {users.size} users vs "
                f"{merchants.size} merchants"
            )
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if users is None or weights.shape != users.shape:
                raise DetectionError("weights must parallel users/merchants")
        if timestamp is not None:
            # a JSON number only: float() would take "2.5" and True too
            if isinstance(timestamp, bool) or not isinstance(timestamp, numbers.Real):
                raise DetectionError(f"ingest timestamp must be a number, got {timestamp!r}")
            timestamp = float(timestamp)
            if not math.isfinite(timestamp):
                raise DetectionError(f"ingest timestamp must be finite, got {timestamp}")
        remove_users = _as_delta_array(remove_users, "remove_users")
        remove_merchants = _as_delta_array(remove_merchants, "remove_merchants")
        if (remove_users is None) != (remove_merchants is None):
            raise DetectionError(
                "remove_users and remove_merchants must be given together"
            )
        if (
            remove_users is not None
            and remove_users.size != remove_merchants.size
        ):
            raise DetectionError(
                f"deletion column length mismatch: {remove_users.size} vs "
                f"{remove_merchants.size}"
            )
        if users is None and remove_users is None:
            raise DetectionError("nothing to apply: give edges and/or deletions")
        return self._submit(
            self._apply_ingest,
            users,
            merchants,
            weights,
            remove_users,
            remove_merchants,
            timestamp,
        )

    def ingest(self, *args, **kwargs) -> dict:
        """Synchronous :meth:`submit_ingest` (tests, benchmarks, scripts)."""
        return self.submit_ingest(*args, **kwargs).result()

    def submit_save_state(self, path: str | Path | None = None) -> "Future[dict]":
        """Queue a crash-safe state snapshot to disk."""
        if path is None:
            path = self.state_path
        if path is None:
            raise DetectionError(
                "no snapshot path: configure the service's state_path or pass one"
            )
        return self._submit(self._apply_save_state, Path(path))

    def save_state(self, path: str | Path | None = None) -> dict:
        """Synchronous :meth:`submit_save_state`."""
        return self.submit_save_state(path).result()

    def close(self, save: bool = True) -> None:
        """Drain queued jobs, optionally persist, and stop the worker."""
        if self._closed:
            return
        if save and self.state_path is not None:
            try:
                self.submit_save_state(self.state_path).result()
            finally:
                self._closed = True
                self._worker.shutdown(wait=True)
            return
        self._closed = True
        self._worker.shutdown(wait=True)

    # ------------------------------------------------------------------
    # worker-side
    # ------------------------------------------------------------------

    def _submit(self, fn, *args) -> "Future[dict]":
        if self._closed:
            raise DetectionError("service is closed")
        with self._counter_lock:
            self._pending += 1
        try:
            future = self._worker.submit(fn, *args)
        except BaseException:
            with self._counter_lock:
                self._pending -= 1
            raise
        future.add_done_callback(self._job_done)
        return future

    def _job_done(self, _future) -> None:
        with self._counter_lock:
            self._pending -= 1

    def _apply_ingest(
        self, users, merchants, weights, remove_users, remove_merchants, timestamp
    ) -> dict:
        detector = self._detector
        try:
            report = detector.update(
                users,
                merchants,
                weights,
                remove_users=remove_users,
                remove_merchants=remove_merchants,
                timestamp=timestamp,
            )
        except BaseException as exc:
            # a delta the detector rejects is caller misuse (a 400), like one
            # rejected before it was queued; a quorum loss is a failed update
            rejected = isinstance(exc, DetectionError) and not isinstance(
                exc, (QuorumError, StateError)
            )
            if not rejected:
                with self._counter_lock:
                    self._updates_failed += 1
            raise
        # the swap is the isolation point: everything before this line is
        # invisible to readers, everything after is the complete new table
        snapshot = ScoreSnapshot.capture(
            detector, self._snapshot.version + 1, self._default_threshold
        )
        self._snapshot = snapshot
        with self._counter_lock:
            self._updates_applied += 1
            self._edges_ingested += report.n_new_edges
            self._edges_retracted += report.n_removed_edges
            self._edges_expired += report.n_expired_edges
            self._members_refreshed += report.n_refreshed
        return self._report_dict(report, snapshot.version)

    def _apply_save_state(self, path: Path) -> dict:
        self._detector.save(path)
        with self._counter_lock:
            self._snapshots_saved += 1
        return {
            "path": str(path),
            "snapshot_version": self._snapshot.version,
            "n_edges": self._snapshot.n_edges,
        }

    @staticmethod
    def _report_dict(report: UpdateReport, version: int) -> dict:
        payload = {
            "n_new_edges": report.n_new_edges,
            "n_removed_edges": report.n_removed_edges,
            "n_expired_edges": report.n_expired_edges,
            "n_refreshed": report.n_refreshed,
            "n_samples": report.n_samples,
            "refreshed_samples": list(report.refreshed_samples),
            "stale_members": list(report.stale_members),
            "seconds": report.total_seconds,
            "snapshot_version": version,
        }
        if report.failed_members:
            payload["failed_members"] = [
                {"index": f.index, "kind": f.kind, "attempts": f.attempts}
                for f in report.failed_members
            ]
        return payload
