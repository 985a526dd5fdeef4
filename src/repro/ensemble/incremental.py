"""Incremental EnsemFDet: keep detection state warm across edge deltas.

A cold :meth:`EnsemFDet.fit` re-samples and re-peels all ``N`` ensemble
members from scratch every time the graph changes. In the streaming
scenario — transactions keep arriving, verdicts must stay fresh —
:class:`IncrementalEnsemFDet` exploits the prefix stability of
:class:`repro.sampling.StableEdgeSampler`: appending a batch of edges
changes only the ensemble members whose stripe set intersects the delta, so
only those members' FDET runs (``≈ S·N`` of ``N`` for a stripe-local
delta) are recomputed. The detector keeps every member's detected parent
node indices and the per-node vote counts: an update subtracts each
refreshed member's previous indices and adds its new ones.

The refreshed state is **bit-identical** to a cold re-fit on the grown
graph with the same seed: untouched members' sampled subgraphs are
unchanged by construction, refreshed members re-run the same deterministic
FDET the cold fit would, and integer counts make the delta tally equal
the cold fit's own :func:`~repro.ensemble.voting.tally_votes`. Stored node
indices stay valid across updates because
:class:`~repro.graph.GraphAccumulator` never renumbers or drops a node,
and gives every label one node (a graph whose labels repeat on a side is
refused).

Every detector keeps its graph in a windowed accumulator. Without a
``window`` it is a :class:`~repro.graph.WindowConfig` with no bound:
nothing expires, so the live edges are every edge appended and not
retracted. An update touches what its delta changes: the accumulator's
columns grow in place, the stripe-inclusion rows cover only the stripes
of the live edges and of the delta, and refreshed members read their
edge ids from the window's :class:`~repro.graph.StripeIndex`.

State survives restarts through :func:`repro.ensemble.results.save_detection_state`
(see :meth:`IncrementalEnsemFDet.save` / :meth:`IncrementalEnsemFDet.load`)
and the ``ensemfdet watch`` / ``ensemfdet update`` CLI subcommands drive the
whole loop from edge-list files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DetectionError, GraphError, QuorumError
from ..fdet import FdetConfig, LogWeightedDensity, SecondDifferenceRule
from ..graph import BipartiteGraph, GraphAccumulator, LiveWindow, StripeIndex, WindowConfig
from ..parallel import ExecutorMode, FaultTolerance, Timer
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
from .voting import VoteTable, counts_table, majority_vote, node_indices, tally_votes

__all__ = ["IncrementalEnsemFDet", "UpdateReport"]

#: format 2 dropped ``min_density_ratio``, ``backoff_seconds``, ``degrade``
#: and the window's ``compact_threshold``; format 1 configs still load
_CONFIG_FORMAT = 2


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
        Edges retracted by an explicit deletion delta.
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


@dataclass(frozen=True)
class _SampleState:
    """One member's last detection (parent node indices) and sample labels."""

    detected_user_indices: np.ndarray
    detected_merchant_indices: np.ndarray
    sample_users: np.ndarray
    sample_merchants: np.ndarray


_EMPTY = np.empty(0, dtype=np.int64)
#: a member that has never produced a detection: no votes, no appearances
_LOST = _SampleState(_EMPTY, _EMPTY, _EMPTY, _EMPTY)


def _sample_state(detection: SampleDetection) -> _SampleState:
    """What the detector stores of one detection."""
    return _SampleState(
        detected_user_indices=detection.detected_user_indices,
        detected_merchant_indices=detection.detected_merchant_indices,
        sample_users=np.asarray(detection.sample_users, dtype=np.int64),
        sample_merchants=np.asarray(detection.sample_merchants, dtype=np.int64),
    )


def _recount(
    counts: np.ndarray, n_nodes: int, removed: list[np.ndarray], added: list[np.ndarray]
) -> np.ndarray:
    """``counts`` over ``n_nodes`` nodes (newly interned ones at 0), one vote
    less per index in ``removed`` and one more per index in ``added``.

    Always a fresh array, so a published table never changes.
    """
    out = np.bincount(np.concatenate([_EMPTY, *added]), minlength=n_nodes)
    out[: counts.size] += counts
    out -= np.bincount(np.concatenate([_EMPTY, *removed]), minlength=n_nodes)
    return out


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
    window:
        Optional :class:`~repro.graph.WindowConfig` (default: one with no
        bound, which expires nothing). Edges that fall out of a bounded
        window leave it automatically. Every :meth:`update` may carry a
        deletion delta (``remove_users`` / ``remove_merchants``) and a
        batch timestamp, and the refreshed state stays bit-identical to a
        cold :meth:`EnsemFDet.fit_window` on the live window.
    """

    def __init__(
        self,
        config: EnsemFDetConfig | None = None,
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
        self.window_config = WindowConfig() if window is None else window
        #: the stripe-hash key every plan of this detector is drawn with
        self._key = config.sampler.derive_key(resolve_rng(config.seed))
        #: free-form JSON-able annotations persisted with the state (e.g.
        #: the watch CLI's source-file row offset)
        self.meta: dict = {}
        #: the graph the vote table speaks about (the window's stored graph)
        self._graph: BipartiteGraph | None = None
        self._acc: GraphAccumulator | None = None
        #: one entry per member index ``0..N-1``
        self._samples: list[_SampleState] = []
        self._table: VoteTable | None = None
        #: members whose last detection failed permanently — their votes
        #: (none, for a member lost in the fit) are stale until a later
        #: update refreshes them successfully
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
        """The current vote table; every :meth:`update` replaces it with a new one."""
        self._require_fitted()
        return self._table

    def _require_fitted(self) -> None:
        if self._table is None:
            raise DetectionError("call fit() (or load()) before using the detector")

    @property
    def stale_members(self) -> tuple[int, ...]:
        """Members currently serving stale votes (degraded mode), sorted."""
        return tuple(sorted(self._degraded))

    @property
    def watermark(self) -> int:
        """The window's append watermark: every edge appended so far."""
        self._require_fitted()
        return self._acc.watermark

    def window(self) -> LiveWindow:
        """Snapshot of the window."""
        self._require_fitted()
        return self._acc.window()

    def fit(self, graph: BipartiteGraph, timestamp: float = 0.0) -> EnsemFDetResult:
        """Cold fit on ``graph``; initialises the warm state.

        The persisted state records each sample's node labels, so
        appearance counts can be refreshed after a restart. ``graph``
        becomes batch 0 of the window, at ``timestamp``. A graph whose
        labels repeat on a side, or a timestamp that is not a finite
        number, raises :class:`~repro.errors.DetectionError` and changes
        nothing. A member lost in the fit is stale, with no votes, until an
        update refreshes it.
        """
        try:
            acc = GraphAccumulator.from_graph(
                graph, window=self.window_config, timestamp=timestamp
            )
        except GraphError as exc:
            raise DetectionError(f"cannot fit: {exc}") from exc
        live = acc.window()
        result = EnsemFDet(self.config).fit_window(live)
        self._acc = acc
        self._graph = live.graph
        lost = {failure.index for failure in result.failed_members}
        survivors = iter(result.sample_detections)
        self._samples = [
            _LOST if index in lost else _sample_state(next(survivors))
            for index in range(self.config.n_samples)
        ]
        self._degraded = lost
        self._table = self._tally()
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
        parallel weight column. A *deletion delta* (``remove_users`` /
        ``remove_merchants``) retracts each pair's oldest live edge, and
        ``timestamp`` stamps the batch (default: the previous batch's + 1).
        Edges that fall out of a bounded window expire. Returns an
        :class:`UpdateReport`; the refreshed detections are available
        through :meth:`detect`.

        A member is re-run exactly when its stripe set intersects the
        appended, retracted or expired ids, which keeps the state
        bit-identical to a cold :meth:`EnsemFDet.fit_window` on the live
        window. Because :class:`StableEdgeSampler` plans are prefix-stable,
        the stale members' plans are just their stripe rows over the live
        stripes — no subgraph is materialized parent-side. All refreshed
        members share one columnar store of the window's graph (one
        store-file spill per update on the process backend).

        A batch or a deletion the window rejects (a timestamp before the
        newest batch's, an unknown label, a pair with no live edge left)
        raises :class:`~repro.errors.DetectionError` and changes nothing.

        A refresh that fails for good leaves that member stale. If too few
        members then hold fresh state, the delta and the fresh refreshes
        are kept all the same, and :class:`~repro.errors.QuorumError` is
        raised. Under a full quorum (``min_quorum == 1.0``) the first
        failure is raised instead and no refresh is kept; the window keeps
        the delta all the same, so every member the update should have
        refreshed is left stale.
        """
        self._require_fitted()
        if users is None:
            users = np.empty(0, dtype=np.int64)
        if merchants is None:
            merchants = np.empty(0, dtype=np.int64)
        config = self.config
        acc = self._acc

        with Timer() as sampling_timer:
            if (remove_users is None) != (remove_merchants is None):
                raise DetectionError(
                    "remove_users and remove_merchants must be given together"
                )
            # the retraction lands first, so a batch the append would reject
            # (a timestamp before the newest batch's) must fail before it
            try:
                acc.check_append(users, merchants, weights, timestamp=timestamp)
            except GraphError as exc:
                raise DetectionError(f"rejected ingest batch: {exc}") from exc
            removed = np.empty(0, dtype=np.int64)
            if remove_users is not None:
                try:
                    removed = acc.retract(remove_users, remove_merchants)
                except GraphError as exc:
                    raise DetectionError(f"rejected deletion: {exc}") from exc
            start, stop = acc.append(users, merchants, weights, timestamp=timestamp)
            expired = acc.expire()
            acc.maybe_compact()
            live = acc.window()
            span = StripeIndex(live.edge_window(), config.sampler.stripe)
            changed = np.concatenate(
                [np.arange(start, stop, dtype=np.int64), removed, expired]
            )
            stale, plans = self._refresh_plans(changed, span.start, span.stop)

        with Timer() as detection_timer:
            run = run_members(
                live.graph,
                plans,
                config.fdet,
                mode=config.executor,
                n_workers=config.n_workers,
                tolerance=config.tolerance,
                window=live.edge_window(),
            )

        stale_indices = stale.tolist()
        failures = self._store_refreshed(run, stale_indices, live.graph)
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

    def _refresh_plans(
        self, changed_ids: np.ndarray, first: int, stop: int
    ) -> tuple[np.ndarray, list]:
        """The members whose stripes hold a changed append id, with their plans.

        Plans cover stripes ``first..stop-1``, the window's live edges. One
        inclusion matrix is hashed over those stripes and the delta's, and
        nothing older.
        """
        config = self.config
        sampler: StableEdgeSampler = config.sampler
        if not changed_ids.size:
            return np.empty(0, dtype=np.int64), []
        stripes = changed_ids // sampler.stripe
        lo = int(stripes.min()) if first == stop else min(first, int(stripes.min()))
        hi = max(stop, int(stripes.max()) + 1)
        touched = np.zeros(hi - lo, dtype=bool)
        touched[stripes - lo] = True
        inclusion = sampler.stripe_inclusion(hi - lo, config.n_samples, self._key, lo)
        stale = np.flatnonzero(inclusion[:, touched].any(axis=1))
        rows = inclusion[:, first - lo : stop - lo] if first < stop else inclusion[:, :0]
        return stale, [sampler.stripe_plan(rows[index], first) for index in stale.tolist()]

    def _store_refreshed(
        self, run, stale_indices: list[int], graph: BipartiteGraph
    ) -> tuple[MemberFailure, ...]:
        """Store the refreshed detections, re-tally every member, enforce the quorum."""
        config = self.config
        if run.failures and config.tolerance.min_quorum >= 1.0:
            # the window already holds the delta, so every member it
            # should have refreshed still votes on the window before it
            self._degraded.update(stale_indices)
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

        replaced: list[tuple[_SampleState, _SampleState]] = []
        for index, detection in zip(stale_indices, run.detections):
            if detection is None:
                # refresh failed permanently: keep the member's previous
                # (now stale) votes rather than silently dropping them
                self._degraded.add(index)
                continue
            fresh = _sample_state(detection)
            replaced.append((self._samples[index], fresh))
            self._samples[index] = fresh
            self._degraded.discard(index)
        # the delta tally: each refreshed member's previous votes out, its new ones in
        table = self._table
        self._graph = graph
        self._table = counts_table(
            graph,
            _recount(
                table.user_votes.counts,
                graph.n_users,
                [old.detected_user_indices for old, _ in replaced],
                [new.detected_user_indices for _, new in replaced],
            ),
            _recount(
                table.merchant_votes.counts,
                graph.n_merchants,
                [old.detected_merchant_indices for old, _ in replaced],
                [new.detected_merchant_indices for _, new in replaced],
            ),
            self._samples,
            config.track_appearances,
        )

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

    def _tally(self) -> VoteTable:
        """The cold tally of every member (a fit or a restored state)."""
        return tally_votes(self._samples, self._graph, self.config.track_appearances)

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
                "tolerance": config.tolerance.as_dict(),
            },
            "sampler": {"ratio": sampler.ratio, "stripe": sampler.stripe},
            "fdet": {
                "metric_c": fdet.metric.c,
                "max_blocks": fdet.max_blocks,
                "weight_policy": fdet.weight_policy,
                "min_block_edges": fdet.min_block_edges,
                "engine": fdet.engine,
            },
        }

    @staticmethod
    def _config_from_dict(payload: dict) -> EnsemFDetConfig:
        if payload.get("format") not in (1, _CONFIG_FORMAT):
            raise DetectionError(
                f"unsupported detection-state config format {payload.get('format')!r}"
            )
        fdet = payload["fdet"]
        # format 1 stored FDET's density-ratio stop, which no detector runs
        # any more: only its off value (0.0) reproduces the stored votes
        if fdet.get("min_density_ratio", 0.0) != 0.0:
            raise DetectionError(
                f"the state was saved with min_density_ratio={fdet['min_density_ratio']}, "
                "an early stop FDET no longer has; refit to resume detection"
            )
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
                engine=fdet["engine"],
            ),
            # states saved with the thread backend load as serial, the step
            # it degraded to; their shared_memory/shards/mmap keys are ignored
            executor=(
                ExecutorMode.SERIAL
                if ensemble["executor"] == "thread"
                else ensemble["executor"]
            ),
            n_workers=ensemble["n_workers"],
            seed=ensemble["seed"],
            track_appearances=ensemble["track_appearances"],
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
        # persist only the live rows; original append ids keep stripe
        # membership stable when the window resumes
        ws = self._acc.window_state()
        graph = ws["graph"]
        # labels, not node indices, go to disk: from_state maps them back
        user_labels, merchant_labels = graph.user_labels, graph.merchant_labels
        return DetectionState(
            config=self._config_dict(),
            graph=graph,
            detected_users=[np.unique(user_labels[s.detected_user_indices]) for s in self._samples],
            detected_merchants=[
                np.unique(merchant_labels[s.detected_merchant_indices]) for s in self._samples
            ],
            sample_users=[s.sample_users for s in self._samples],
            sample_merchants=[s.sample_merchants for s in self._samples],
            meta=meta,
            window={key: ws[key] for key in ("config", "watermark", "batches")},
            edge_ids=ws["edge_ids"],
        )

    def save(self, path) -> None:
        """Persist the warm state (graph + per-sample detections) to ``path``."""
        save_detection_state(self.state(), path)

    @classmethod
    def from_state(cls, state: DetectionState) -> "IncrementalEnsemFDet":
        """Rebuild a live detector from a :class:`DetectionState`.

        A state saved without a window loads as a window with no bound, its
        edges appended as ids ``0..|E|-1`` in one batch at time 0. A graph
        whose labels repeat on a side, or a window the accumulator cannot
        restore, raises :class:`~repro.errors.DetectionError`.
        """
        config = cls._config_from_dict(state.config)
        if state.n_samples != config.n_samples:
            raise DetectionError(
                f"state holds {state.n_samples} samples but config says "
                f"{config.n_samples}"
            )
        n_edges = state.graph.n_edges
        window = state.window or {
            "config": {},  # no bound
            "watermark": n_edges,
            "batches": [[0, n_edges, 0.0]],
        }
        try:
            window_config = WindowConfig.from_dict(window["config"])
            acc = GraphAccumulator.restore_window(
                state.graph,
                window_config,
                edge_ids=np.arange(n_edges) if state.edge_ids is None else state.edge_ids,
                watermark=int(window["watermark"]),
                batches=window["batches"],
            )
        except GraphError as exc:
            raise DetectionError(f"cannot restore the detection state: {exc}") from exc
        detector = cls(config, window=window_config)
        detector._acc = acc
        detector.meta = dict(state.meta)
        detector._degraded = set(
            int(i) for i in detector.meta.pop("degraded_members", [])
        )
        graph = detector._graph = state.graph
        detector._samples = [
            _SampleState(*member)
            for member in zip(
                node_indices(graph.user_labels, state.detected_users),
                node_indices(graph.merchant_labels, state.detected_merchants),
                state.sample_users,
                state.sample_merchants,
            )
        ]
        detector._table = detector._tally()
        return detector

    @classmethod
    def load(cls, path) -> "IncrementalEnsemFDet":
        """Rebuild a live detector from a saved state archive."""
        return cls.from_state(load_detection_state(path))

    @classmethod
    def load_with_recovery(cls, path) -> tuple["IncrementalEnsemFDet", str | None]:
        """Like :meth:`load`, falling back to the ``.bak`` snapshot.

        When the primary archive is corrupt (checksum mismatch, truncated
        write, flipped bytes) but its rolling backup still verifies, the
        detector is rebuilt from the backup. Returns the detector plus the
        path actually loaded when recovery kicked in (``None`` for a clean
        primary load). Raises :class:`~repro.errors.StateChecksumError`
        when both copies are unreadable.
        """
        state, recovered_from = load_detection_state_with_recovery(path)
        return cls.from_state(state), recovered_from
