"""Incremental EnsemFDet: keep detection state warm across edge deltas.

A cold :meth:`EnsemFDet.fit` re-samples and re-peels all ``N`` ensemble
members from scratch every time the graph changes. In the streaming
scenario — transactions keep arriving, verdicts must stay fresh —
:class:`IncrementalEnsemFDet` exploits the prefix stability of
:class:`repro.sampling.StableEdgeSampler`: appending a batch of edges
changes only the ensemble members whose stripe set intersects the delta, so
only those members' FDET runs (``≈ S·N`` of ``N`` for a stripe-local
delta) are recomputed and their votes merged back into the stored table.

The refreshed state is **bit-identical** to a cold re-fit on the grown
graph with the same seed: untouched members' sampled subgraphs are
unchanged by construction, refreshed members re-run the same deterministic
FDET the cold fit would, and vote subtraction/addition reproduces the
fresh tally exactly.

State survives restarts through :func:`repro.ensemble.results.save_detection_state`
(see :meth:`IncrementalEnsemFDet.save` / :meth:`IncrementalEnsemFDet.load`)
and the ``ensemfdet watch`` / ``ensemfdet update`` CLI subcommands drive the
whole loop from edge-list files.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from ..errors import DetectionError, QuorumError
from ..fdet import FdetConfig, LogWeightedDensity, SecondDifferenceRule
from ..graph import BipartiteGraph, GraphAccumulator, LiveWindow, WindowConfig
from ..parallel import FaultTolerance, ReusablePool, Timer
from ..sampling import StableEdgeSampler, resolve_rng
from .ensemfdet import EnsemFDet, EnsemFDetConfig, EnsemFDetResult
from .results import (
    DetectionResult,
    DetectionState,
    load_detection_state,
    load_detection_state_with_recovery,
    save_detection_state,
)
from .runner import MemberFailure, SampleDetection, _raise_first_failure, run_members
from .voting import VoteTable, majority_vote

__all__ = ["IncrementalEnsemFDet", "UpdateReport"]

_CONFIG_FORMAT = 1


@dataclass(frozen=True)
class UpdateReport:
    """What one :meth:`IncrementalEnsemFDet.update` call did.

    Attributes
    ----------
    n_new_edges:
        Edges appended by the delta.
    refreshed_samples:
        Indices of the ensemble members whose sampled edge set intersected
        the delta and were re-detected.
    n_samples:
        Ensemble size ``N`` (for computing the refresh fraction).
    sampling_seconds, detection_seconds:
        Wall-clock of the re-sampling and re-detection stages.
    failed_members:
        Members whose refresh failed permanently this update (their
        previous detection stays in the vote table, now stale).
    stale_members:
        Every member currently carrying stale votes (accumulated across
        updates until a later refresh succeeds).
    retry_log:
        Per-attempt history of this update's detection stage.
    n_removed_edges:
        Edges retracted by an explicit deletion delta (windowed mode).
    n_expired_edges:
        Edges that fell out of the rolling window this update.
    """

    n_new_edges: int
    refreshed_samples: tuple[int, ...]
    n_samples: int
    sampling_seconds: float
    detection_seconds: float
    failed_members: tuple[MemberFailure, ...] = ()
    stale_members: tuple[int, ...] = ()
    retry_log: tuple[dict, ...] = ()
    n_removed_edges: int = 0
    n_expired_edges: int = 0

    @property
    def n_refreshed(self) -> int:
        """How many ensemble members were re-run successfully."""
        return len(self.refreshed_samples) - len(self.failed_members)

    @property
    def total_seconds(self) -> float:
        """Wall-clock of the whole update."""
        return self.sampling_seconds + self.detection_seconds


@dataclass
class _SampleState:
    """One ensemble member's last detection and sample contents (labels)."""

    detected_users: np.ndarray
    detected_merchants: np.ndarray
    sample_users: np.ndarray
    sample_merchants: np.ndarray

    @classmethod
    def from_detection(cls, detection: SampleDetection) -> "_SampleState":
        return cls(
            detected_users=detection.result.detected_users(),
            detected_merchants=detection.result.detected_merchants(),
            sample_users=np.array(detection.sample_users, dtype=np.int64),
            sample_merchants=np.array(detection.sample_merchants, dtype=np.int64),
        )


def _add_votes(counter: Counter[int], labels: np.ndarray) -> None:
    counter.update(labels.tolist())


def _subtract_votes(counter: Counter[int], labels: np.ndarray) -> None:
    for label in labels.tolist():
        remaining = counter[label] - 1
        if remaining > 0:
            counter[label] = remaining
        else:
            del counter[label]


class IncrementalEnsemFDet:
    """EnsemFDet with warm state and delta-scoped re-detection.

    >>> from repro.graph import BipartiteGraph
    >>> from repro.sampling import StableEdgeSampler
    >>> graph = BipartiteGraph.from_edges(
    ...     [(u, v) for u in range(20) for v in range(10)])
    >>> config = EnsemFDetConfig(
    ...     sampler=StableEdgeSampler(0.5, stripe=16), n_samples=8, seed=7)
    >>> detector = IncrementalEnsemFDet(config)
    >>> _ = detector.fit(graph)
    >>> report = detector.update([0, 1], [9, 9])
    >>> report.n_new_edges
    2
    >>> detector.detect(threshold=4).n_users > 0
    True

    Parameters
    ----------
    config:
        Ensemble configuration. The sampler **must** be a
        :class:`StableEdgeSampler` (prefix stability is what makes partial
        refresh sound) and ``seed`` must be set (the sampling key has to be
        re-derivable on every update).
    pool:
        Optional :class:`ReusablePool`; both the initial fit and every
        update run their detection stage on these warm workers.
    window:
        Optional :class:`~repro.graph.WindowConfig`. When set, the
        detector operates on a rolling window: each :meth:`update` may
        carry deletion deltas (``remove_users`` / ``remove_merchants``),
        expired edges leave the window automatically, and the refreshed
        state stays bit-identical to a cold
        :meth:`EnsemFDet.fit_window` on the live window.
    """

    def __init__(
        self,
        config: EnsemFDetConfig | None = None,
        pool: ReusablePool | None = None,
        window: WindowConfig | None = None,
    ) -> None:
        if config is None:
            config = EnsemFDetConfig(sampler=StableEdgeSampler(0.1), seed=0)
        if not isinstance(config.sampler, StableEdgeSampler):
            raise DetectionError(
                "IncrementalEnsemFDet requires a StableEdgeSampler (got "
                f"{type(config.sampler).__name__}); other samplers reshuffle every "
                "sample on any graph change, which defeats incremental refresh"
            )
        if config.seed is None:
            raise DetectionError(
                "IncrementalEnsemFDet requires an explicit seed so updates can "
                "re-derive the sampling key"
            )
        self.config = config
        self.pool = pool
        self.window_config = window
        #: free-form JSON-able annotations persisted with the state (e.g.
        #: the watch CLI's source-file row offset)
        self.meta: dict = {}
        self._graph: BipartiteGraph | None = None
        self._acc: GraphAccumulator | None = None
        self._samples: list[_SampleState] = []
        self._table: VoteTable | None = None
        #: members whose last refresh failed permanently — their votes are
        #: stale until a later update refreshes them successfully
        self._degraded: set[int] = set()

    # ------------------------------------------------------------------
    # fitting & updating
    # ------------------------------------------------------------------

    @property
    def is_fitted(self) -> bool:
        """``True`` once :meth:`fit` (or :meth:`load`) has run."""
        return self._table is not None

    @property
    def graph(self) -> BipartiteGraph:
        """The accumulated graph the state is currently synchronised with."""
        self._require_fitted()
        return self._graph

    @property
    def vote_table(self) -> VoteTable:
        """The live vote table (mutated in place by :meth:`update`)."""
        self._require_fitted()
        return self._table

    def _require_fitted(self) -> None:
        if self._table is None:
            raise DetectionError("call fit() (or load()) before using the detector")

    @property
    def stale_members(self) -> tuple[int, ...]:
        """Members currently serving stale votes (degraded mode), sorted."""
        return tuple(sorted(self._degraded))

    def window(self) -> LiveWindow:
        """Snapshot of the rolling window (windowed detectors only)."""
        self._require_fitted()
        if self._acc is None:
            raise DetectionError(
                "this detector is append-only; construct with window=WindowConfig(...)"
            )
        return self._acc.window()

    def fit(self, graph: BipartiteGraph, timestamp: float = 0.0) -> EnsemFDetResult:
        """Cold fit on ``graph``; initialises the warm state.

        Member tracking is forced on: the persisted state records each
        sample's node labels so appearance counts can be refreshed after
        a restart. A windowed detector records ``graph`` as batch 0 of
        the rolling window, at ``timestamp``.
        """
        if self.window_config is not None:
            self._acc = GraphAccumulator.from_graph(
                graph, window=self.window_config, timestamp=timestamp
            )
            live = self._acc.window()
            result = EnsemFDet(self.config, pool=self.pool).fit_window(
                live, track_members=True
            )
            graph = live.graph
        else:
            if timestamp:
                raise DetectionError("fit timestamps require a windowed detector")
            result = EnsemFDet(self.config, pool=self.pool).fit(graph, track_members=True)
        self._graph = graph
        self._samples = [
            _SampleState.from_detection(detection) for detection in result.sample_detections
        ]
        table = VoteTable(
            n_samples=result.vote_table.n_samples,
            user_votes=Counter(result.vote_table.user_votes),
            merchant_votes=Counter(result.vote_table.merchant_votes),
        )
        if result.vote_table.user_appearances is not None:
            table.user_appearances = Counter(result.vote_table.user_appearances)
            table.merchant_appearances = Counter(result.vote_table.merchant_appearances)
        self._table = table
        return result

    def update(
        self,
        users=None,
        merchants=None,
        weights=None,
        *,
        remove_users=None,
        remove_merchants=None,
        timestamp: float | None = None,
    ) -> UpdateReport:
        """Apply an edge delta and refresh only the invalidated members.

        ``users`` / ``merchants`` are parallel arrays of **global labels**
        (unseen labels grow the partitions); ``weights`` is an optional
        parallel weight column. Returns an :class:`UpdateReport`; the
        refreshed detections are available through :meth:`detect`.

        Windowed detectors additionally accept a *deletion delta*
        (``remove_users`` / ``remove_merchants``: each pair retracts its
        oldest live edge) and a batch ``timestamp``; edges falling out of
        the rolling window expire automatically. A member is re-run
        exactly when its stripe set intersects the appended, retracted or
        expired ids, which keeps the state bit-identical to a cold
        :meth:`EnsemFDet.fit_window` on the live window. On an
        append-only detector the deletion/timestamp parameters raise
        :class:`~repro.errors.DetectionError`.

        Because :class:`StableEdgeSampler` plans are prefix-stable, the
        stale members' plans are just their stripe rows re-hashed on the
        grown edge count — no subgraph is materialized parent-side. All
        refreshed members share one columnar store of the grown graph
        (one shared-memory export per update on the process backend).
        """
        self._require_fitted()
        if users is None:
            users = np.empty(0, dtype=np.int64)
        if merchants is None:
            merchants = np.empty(0, dtype=np.int64)
        if self.window_config is not None:
            return self._update_windowed(
                users, merchants, weights, remove_users, remove_merchants, timestamp
            )
        if remove_users is not None or remove_merchants is not None:
            raise DetectionError(
                "deletion deltas require a windowed detector "
                "(construct with window=WindowConfig(...))"
            )
        if timestamp is not None:
            raise DetectionError(
                "batch timestamps require a windowed detector "
                "(construct with window=WindowConfig(...))"
            )
        config = self.config
        sampler: StableEdgeSampler = config.sampler

        with Timer() as sampling_timer:
            accumulator = GraphAccumulator.from_graph(self._graph)
            start, stop = accumulator.append(users, merchants, weights)
            new_graph = accumulator.graph()
            key = sampler.derive_key(resolve_rng(config.seed))
            inclusion = sampler.stripe_inclusion(
                sampler.n_stripes(new_graph.n_edges), config.n_samples, key
            )
            stale = self._stale_members(
                inclusion, np.arange(start, stop, dtype=np.int64), sampler.stripe
            )
            plans = [sampler.stripe_plan(inclusion[index]) for index in stale.tolist()]

        with Timer() as detection_timer:
            run = run_members(
                new_graph,
                plans,
                config.fdet,
                mode=config.executor,
                n_workers=config.n_workers,
                pool=self.pool,
                track_members=True,
                shared_memory=config.shared_memory,
                tolerance=config.tolerance,
                # updates refresh few members, so sharding would be pure
                # overhead; the mmap transport still applies
                mmap=config.mmap,
            )

        stale_indices = stale.tolist()
        failures = self._merge_refreshed(run, stale_indices)
        self._graph = new_graph
        return UpdateReport(
            n_new_edges=stop - start,
            refreshed_samples=tuple(int(i) for i in stale_indices),
            n_samples=config.n_samples,
            sampling_seconds=sampling_timer.elapsed,
            detection_seconds=detection_timer.elapsed,
            failed_members=failures,
            stale_members=tuple(sorted(self._degraded)),
            retry_log=run.retry_log,
        )

    def _update_windowed(
        self, users, merchants, weights, remove_users, remove_merchants, timestamp
    ) -> UpdateReport:
        """Windowed delta: retract, append, expire, then refresh stale members."""
        config = self.config
        sampler: StableEdgeSampler = config.sampler
        acc = self._acc

        with Timer() as sampling_timer:
            if (remove_users is None) != (remove_merchants is None):
                raise DetectionError(
                    "remove_users and remove_merchants must be given together"
                )
            removed = (
                acc.retract(remove_users, remove_merchants)
                if remove_users is not None
                else np.empty(0, dtype=np.int64)
            )
            start, stop = acc.append(users, merchants, weights, timestamp=timestamp)
            expired = acc.expire()
            acc.maybe_compact()
            live = acc.window()
            key = sampler.derive_key(resolve_rng(config.seed))
            inclusion = sampler.stripe_inclusion(
                sampler.n_stripes(live.watermark), config.n_samples, key
            )
            changed = np.concatenate(
                [np.arange(start, stop, dtype=np.int64), removed, expired]
            )
            stale = self._stale_members(inclusion, changed, sampler.stripe)
            plans = [sampler.stripe_plan(inclusion[index]) for index in stale.tolist()]

        with Timer() as detection_timer:
            run = run_members(
                live.graph,
                plans,
                config.fdet,
                mode=config.executor,
                n_workers=config.n_workers,
                pool=self.pool,
                track_members=True,
                shared_memory=config.shared_memory,
                tolerance=config.tolerance,
                window=live.edge_window(),
                mmap=config.mmap,
            )

        stale_indices = stale.tolist()
        failures = self._merge_refreshed(run, stale_indices)
        self._graph = live.graph
        return UpdateReport(
            n_new_edges=stop - start,
            refreshed_samples=tuple(int(i) for i in stale_indices),
            n_samples=config.n_samples,
            sampling_seconds=sampling_timer.elapsed,
            detection_seconds=detection_timer.elapsed,
            failed_members=failures,
            stale_members=tuple(sorted(self._degraded)),
            retry_log=run.retry_log,
            n_removed_edges=int(removed.size),
            n_expired_edges=int(expired.size),
        )

    @staticmethod
    def _stale_members(
        inclusion: np.ndarray, changed_ids: np.ndarray, stripe: int
    ) -> np.ndarray:
        """Members whose stripe set intersects the changed append ids."""
        if not changed_ids.size:
            return np.empty(0, dtype=np.int64)
        delta_stripes = np.unique(changed_ids // stripe)
        return np.nonzero(inclusion[:, delta_stripes].any(axis=1))[0]

    def _merge_refreshed(
        self, run, stale_indices: list[int]
    ) -> tuple[MemberFailure, ...]:
        """Swap refreshed members' votes into the table; enforce the quorum."""
        config = self.config
        if run.failures and config.tolerance.min_quorum >= 1.0:
            _raise_first_failure(run)

        # remap positional failure indices back to global member indices
        failures = tuple(
            MemberFailure(
                index=stale_indices[failure.index],
                kind=failure.kind,
                error=failure.error,
                attempts=failure.attempts,
            )
            for failure in run.failures
        )

        table = self._table
        for position, index in enumerate(stale_indices):
            detection = run.detections[position]
            if detection is None:
                # refresh failed permanently: keep the member's previous
                # (now stale) votes rather than silently dropping them
                self._degraded.add(index)
                continue
            old = self._samples[index]
            fresh = _SampleState.from_detection(detection)
            _subtract_votes(table.user_votes, old.detected_users)
            _subtract_votes(table.merchant_votes, old.detected_merchants)
            _add_votes(table.user_votes, fresh.detected_users)
            _add_votes(table.merchant_votes, fresh.detected_merchants)
            if table.user_appearances is not None:
                _subtract_votes(table.user_appearances, old.sample_users)
                _subtract_votes(table.merchant_appearances, old.sample_merchants)
                _add_votes(table.user_appearances, fresh.sample_users)
                _add_votes(table.merchant_appearances, fresh.sample_merchants)
            self._samples[index] = fresh
            self._degraded.discard(index)

        fresh_members = config.n_samples - len(self._degraded)
        required = config.tolerance.required_survivors(config.n_samples)
        if fresh_members < required:
            kinds = sorted({failure.kind for failure in failures})
            raise QuorumError(
                f"only {fresh_members}/{config.n_samples} ensemble members "
                f"hold fresh state after this update ({len(self._degraded)} "
                f"stale: {sorted(self._degraded)}; failure kinds: "
                f"{', '.join(kinds) or 'carried over'}) — below the "
                f"configured quorum of {required} "
                f"(min_quorum={config.tolerance.min_quorum:g})"
            )
        return failures

    def update_edges(self, edges, weights=None) -> UpdateReport:
        """Convenience: :meth:`update` from ``(user, merchant)`` pairs."""
        pairs = list(edges)
        users = np.array([u for u, _ in pairs], dtype=np.int64)
        merchants = np.array([v for _, v in pairs], dtype=np.int64)
        return self.update(users, merchants, weights)

    def detect(self, threshold: int) -> DetectionResult:
        """Apply MVA at voting threshold ``T`` to the live vote table."""
        self._require_fitted()
        return majority_vote(self._table, threshold)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def _config_dict(self) -> dict:
        config = self.config
        fdet = config.fdet
        sampler: StableEdgeSampler = config.sampler
        if type(fdet.metric) is not LogWeightedDensity:
            raise DetectionError(
                f"cannot persist state with metric {type(fdet.metric).__name__}; "
                "only the paper's LogWeightedDensity is serialisable"
            )
        if type(fdet.truncation) is not SecondDifferenceRule:
            raise DetectionError(
                f"cannot persist state with truncation {type(fdet.truncation).__name__}; "
                "only the default SecondDifferenceRule is serialisable"
            )
        return {
            "format": _CONFIG_FORMAT,
            "ensemble": {
                "n_samples": config.n_samples,
                "seed": config.seed,
                "executor": config.executor,
                "n_workers": config.n_workers,
                "track_appearances": config.track_appearances,
                "shared_memory": config.shared_memory,
                "shards": config.shards,
                "mmap": config.mmap,
                "tolerance": config.tolerance.as_dict(),
            },
            "sampler": {"ratio": sampler.ratio, "stripe": sampler.stripe},
            "fdet": {
                "metric_c": fdet.metric.c,
                "max_blocks": fdet.max_blocks,
                "weight_policy": fdet.weight_policy,
                "min_block_edges": fdet.min_block_edges,
                "min_density_ratio": fdet.min_density_ratio,
                "engine": fdet.engine,
            },
        }

    @staticmethod
    def _config_from_dict(payload: dict) -> EnsemFDetConfig:
        if payload.get("format") != _CONFIG_FORMAT:
            raise DetectionError(
                f"unsupported detection-state config format {payload.get('format')!r}"
            )
        fdet = payload["fdet"]
        ensemble = payload["ensemble"]
        sampler = payload["sampler"]
        return EnsemFDetConfig(
            sampler=StableEdgeSampler(sampler["ratio"], stripe=sampler["stripe"]),
            n_samples=ensemble["n_samples"],
            fdet=FdetConfig(
                metric=LogWeightedDensity(c=fdet["metric_c"]),
                max_blocks=fdet["max_blocks"],
                weight_policy=fdet["weight_policy"],
                min_block_edges=fdet["min_block_edges"],
                min_density_ratio=fdet["min_density_ratio"],
                engine=fdet["engine"],
            ),
            executor=ensemble["executor"],
            n_workers=ensemble["n_workers"],
            seed=ensemble["seed"],
            track_appearances=ensemble["track_appearances"],
            # absent in states saved before the zero-copy fan-out refactor
            shared_memory=ensemble.get("shared_memory", True),
            # absent in states saved before the sharded / out-of-core layer
            shards=ensemble.get("shards", 1),
            mmap=ensemble.get("mmap", False),
            # absent in states saved before the fault-tolerance layer
            tolerance=FaultTolerance.from_dict(ensemble.get("tolerance")),
        )

    def state(self) -> DetectionState:
        """Snapshot the warm state as a serialisable :class:`DetectionState`."""
        self._require_fitted()
        meta = dict(self.meta)
        if self._degraded:
            meta["degraded_members"] = sorted(self._degraded)
        else:
            meta.pop("degraded_members", None)
        graph = self._graph
        window = None
        edge_ids = None
        if self._acc is not None:
            # persist only the live rows; original append ids keep stripe
            # membership stable when the window resumes
            ws = self._acc.window_state()
            graph = ws["graph"]
            edge_ids = ws["edge_ids"]
            window = {
                "config": ws["config"],
                "watermark": ws["watermark"],
                "batches": ws["batches"],
            }
        return DetectionState(
            config=self._config_dict(),
            graph=graph,
            detected_users=[s.detected_users for s in self._samples],
            detected_merchants=[s.detected_merchants for s in self._samples],
            sample_users=[s.sample_users for s in self._samples],
            sample_merchants=[s.sample_merchants for s in self._samples],
            meta=meta,
            window=window,
            edge_ids=edge_ids,
        )

    def save(self, path) -> None:
        """Persist the warm state (graph + per-sample detections) to ``path``."""
        save_detection_state(self.state(), path)

    @classmethod
    def from_state(
        cls, state: DetectionState, pool: ReusablePool | None = None
    ) -> "IncrementalEnsemFDet":
        """Rebuild a live detector from a :class:`DetectionState`."""
        config = cls._config_from_dict(state.config)
        if state.n_samples != config.n_samples:
            raise DetectionError(
                f"state holds {state.n_samples} samples but config says "
                f"{config.n_samples}"
            )
        window_config = None
        if state.window is not None:
            window_config = WindowConfig.from_dict(state.window["config"])
        detector = cls(config, pool=pool, window=window_config)
        if window_config is not None:
            detector._acc = GraphAccumulator.restore_window(
                state.graph,
                window_config,
                edge_ids=state.edge_ids,
                watermark=int(state.window["watermark"]),
                batches=state.window["batches"],
            )
        detector.meta = dict(state.meta)
        detector._degraded = set(
            int(i) for i in detector.meta.pop("degraded_members", [])
        )
        detector._graph = state.graph
        detector._samples = [
            _SampleState(
                detected_users=du,
                detected_merchants=dm,
                sample_users=su,
                sample_merchants=sm,
            )
            for du, dm, su, sm in zip(
                state.detected_users,
                state.detected_merchants,
                state.sample_users,
                state.sample_merchants,
            )
        ]
        table = VoteTable.from_detections(
            [du.tolist() for du in state.detected_users],
            [dm.tolist() for dm in state.detected_merchants],
        )
        if config.track_appearances:
            table.attach_appearances(
                [su.tolist() for su in state.sample_users],
                [sm.tolist() for sm in state.sample_merchants],
            )
        detector._table = table
        return detector

    @classmethod
    def load(cls, path, pool: ReusablePool | None = None) -> "IncrementalEnsemFDet":
        """Rebuild a live detector from a saved state archive."""
        return cls.from_state(load_detection_state(path), pool=pool)

    @classmethod
    def load_with_recovery(
        cls, path, pool: ReusablePool | None = None
    ) -> tuple["IncrementalEnsemFDet", str | None]:
        """Like :meth:`load`, falling back to the ``.bak`` snapshot.

        When the primary archive is corrupt (checksum mismatch, truncated
        write, flipped bytes) but its rolling backup still verifies, the
        detector is rebuilt from the backup. Returns the detector plus the
        path actually loaded when recovery kicked in (``None`` for a clean
        primary load). Raises :class:`~repro.errors.StateChecksumError`
        when both copies are unreadable.
        """
        state, recovered_from = load_detection_state_with_recovery(path)
        return cls.from_state(state, pool=pool), recovered_from
