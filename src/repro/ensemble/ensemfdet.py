"""EnsemFDet — the paper's headline method (Algorithm 2, Fig. 2).

Pipeline::

    graph --(sampler.plan × N)--> compact plans --(materialize + FDET,
    parallel, shared-memory parent)--> per-sample detections
    --(majority vote, threshold T)--> U_final, V_final

The sampling stage is plan-only: the parent draws ``N`` compact
:class:`~repro.sampling.SamplePlan` objects (consuming the RNG exactly as
the historical eager sampler did) and the subgraphs are materialized inside
the detection workers against a shared-memory view of the parent graph —
see :func:`repro.ensemble.runner.detect_on_plans` for the memory model.

The expensive middle stage is run once by :meth:`EnsemFDet.fit`; the returned
:class:`EnsemFDetResult` holds the vote table so callers can evaluate *every*
threshold ``T`` (and hence draw the paper's smooth operating curves) without
re-detecting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import DetectionError, QuorumError
from ..fdet import FdetConfig, FdetResult
from ..fdet import batched as _batched
from ..graph import BipartiteGraph, GraphStore, LiveWindow
from ..parallel import ExecutorMode, FaultTolerance, ReusablePool, Timer
from ..sampling import RandomEdgeSampler, Sampler, StableEdgeSampler, resolve_rng
from .results import DetectionResult
from .runner import MemberFailure, MemberRun, SampleDetection, _raise_first_failure, run_members
from .sharding import ShardPlan, merge_shard_votes, plan_shards, run_sharded
from .voting import VoteTable, majority_vote

__all__ = ["EnsemFDetConfig", "EnsemFDetResult", "EnsemFDet"]


@dataclass(frozen=True)
class EnsemFDetConfig:
    """Configuration of the full ensemble (paper Table II parameters).

    Attributes
    ----------
    sampler:
        Structural sampling method ``M`` with its ratio ``S``; defaults to
        random edge sampling at ``S = 0.1`` (the paper's workhorse setting).
    n_samples:
        Ensemble size ``N`` (paper sweeps {10, 20, 40, 80}).
    fdet:
        FDET configuration applied to every sampled subgraph.
    executor:
        Backend for the parallel detection stage.
    n_workers:
        Pool size (``None`` = CPU count).
    seed:
        Seed for the sampling stage; fixing it makes a fit reproducible.
    track_appearances:
        Also record which nodes each sample contained, enabling the
        normalised-vote ablation (slightly more memory).
    shared_memory:
        For the process backend, publish the parent graph once through a
        shared-memory :class:`~repro.graph.GraphStore` segment instead of
        pickling graph bytes into every worker. Disable to force the
        pickled-store fallback (debugging, exotic platforms).
    tolerance:
        Degraded-mode policy for the detection stage: per-member timeout,
        bounded deterministic retries with backend degradation, and the
        minimum surviving quorum below which a fit raises
        :class:`~repro.errors.QuorumError` instead of returning a weak
        vote table. The default retries twice and accepts a half-strength
        ensemble; :meth:`FaultTolerance.strict` restores fail-fast
        semantics. Zero overhead while nothing fails.
    shards:
        Stripe-shard the fit: members are split into this many contiguous
        groups, each run against a shard store holding only the edges its
        members sample, and the per-shard vote tables are merged — bitwise
        identical to the unsharded fit (see
        :mod:`repro.ensemble.sharding`). ``1`` (the default) disables
        sharding. Requires edge-list-reducible plans ("edges"/"stripes").
    mmap:
        Out-of-core transport: ship the parent (or each shard store) to
        process workers as an mmap-able store file instead of a shared
        segment, and — when sharding — keep at most one shard's columns
        resident in the parent at a time. A fit on a store opened with
        :meth:`~repro.graph.GraphStore.open` uses the file transport
        implicitly.
    """

    sampler: Sampler = field(default_factory=lambda: RandomEdgeSampler(0.1))
    n_samples: int = 80
    fdet: FdetConfig = field(default_factory=FdetConfig)
    executor: str = ExecutorMode.SERIAL
    n_workers: int | None = None
    seed: int | None = None
    track_appearances: bool = False
    shared_memory: bool = True
    tolerance: FaultTolerance = field(default_factory=FaultTolerance)
    shards: int = 1
    mmap: bool = False

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise DetectionError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.shards < 1:
            raise DetectionError(f"shards must be >= 1, got {self.shards}")

    @property
    def repetition_rate(self) -> float:
        """``R = S × N`` (paper Table II)."""
        return self.sampler.ratio * self.n_samples


@dataclass(frozen=True)
class EnsemFDetResult:
    """Fitted ensemble: vote table + per-sample detections + timings.

    ``sample_detections`` holds only the *surviving* members; when the
    fit degraded, ``failed_members`` records who dropped out (and why)
    and ``retry_log`` the per-attempt history. Voting thresholds passed
    to :meth:`detect` are always expressed against the configured
    ensemble size ``N`` and rescaled internally to the survivors.
    """

    config: EnsemFDetConfig
    vote_table: VoteTable
    sample_detections: tuple[SampleDetection, ...]
    sampling_seconds: float
    detection_seconds: float
    failed_members: tuple[MemberFailure, ...] = ()
    retry_log: tuple[dict, ...] = ()

    @property
    def n_samples(self) -> int:
        """Surviving ensemble size (``== config.n_samples`` unless degraded)."""
        return self.vote_table.n_samples

    @property
    def n_failed(self) -> int:
        """Members that produced no detection after every retry."""
        return len(self.failed_members)

    @property
    def effective_quorum(self) -> float:
        """Surviving fraction of the configured ensemble."""
        return self.vote_table.n_samples / self.config.n_samples

    @property
    def total_seconds(self) -> float:
        """Wall-clock spent sampling plus detecting."""
        return self.sampling_seconds + self.detection_seconds

    def effective_threshold(self, threshold: int) -> int:
        """Rescale a threshold meant for ``N`` members to the survivors.

        A caller asking for ``T`` votes out of the configured ``N`` keeps
        the same *fraction* of the ensemble when only ``n`` members
        survived: ``max(1, ceil(T·n/N))``. Identity when nothing failed.
        """
        survivors = self.vote_table.n_samples
        configured = self.config.n_samples
        if survivors == configured:
            return threshold
        return max(1, math.ceil(threshold * survivors / configured))

    def detect(self, threshold: int) -> DetectionResult:
        """Apply MVA at voting threshold ``T`` (of the configured ``N``)."""
        return majority_vote(self.vote_table, self.effective_threshold(threshold))

    def sweep_thresholds(
        self, thresholds: list[int] | None = None
    ) -> list[tuple[int, DetectionResult]]:
        """Detections for every threshold (default ``1..N``), descending size."""
        if thresholds is None:
            thresholds = list(range(1, self.n_samples + 1))
        return [(t, self.detect(t)) for t in thresholds]

    def fdet_results(self) -> list[FdetResult]:
        """The raw per-sample FDET results (e.g. for Fig.-1 score curves)."""
        return [detection.result for detection in self.sample_detections]

    def block_score_series(self) -> list[np.ndarray]:
        """Per-sample block-density series — the data behind paper Fig. 1."""
        return [detection.result.densities for detection in self.sample_detections]


def _enforce_quorum(run: MemberRun, config: EnsemFDetConfig) -> list[SampleDetection]:
    """Survivor detections, or a typed error when too many members died.

    Full-quorum policies (``min_quorum == 1.0``, e.g.
    :meth:`FaultTolerance.strict`) re-raise the first member's original
    exception so fail-fast callers keep exact error types; partial
    quorums raise :class:`~repro.errors.QuorumError` only when the
    survivors no longer clear ``tolerance.required_survivors``.
    """
    if not run.failures:
        return run.survivors()
    tolerance = config.tolerance
    if tolerance.min_quorum >= 1.0:
        _raise_first_failure(run)
    survivors = run.survivors()
    required = tolerance.required_survivors(config.n_samples)
    if len(survivors) < required:
        kinds = sorted({failure.kind for failure in run.failures})
        raise QuorumError(
            f"only {len(survivors)}/{config.n_samples} ensemble members "
            f"survived ({len(run.failures)} failed: {', '.join(kinds)}) — "
            f"below the configured quorum of {required} "
            f"(min_quorum={tolerance.min_quorum:g}); first failure: "
            f"member {run.failures[0].index}: {run.failures[0].error}"
        )
    return survivors


class EnsemFDet:
    """Ensemble based Fraud DETection (the paper's Algorithm 2).

    >>> from repro.graph import BipartiteGraph
    >>> from repro.sampling import RandomEdgeSampler
    >>> graph = BipartiteGraph.from_edges(
    ...     [(u, v) for u in range(20) for v in range(10)])
    >>> config = EnsemFDetConfig(sampler=RandomEdgeSampler(0.5), n_samples=8, seed=7)
    >>> result = EnsemFDet(config).fit(graph)
    >>> detected = result.detect(threshold=4)
    >>> detected.n_users > 0
    True

    Parameters
    ----------
    config:
        Ensemble configuration (sampling, FDET incl. peeling engine,
        executor backend).
    pool:
        Optional :class:`repro.parallel.ReusablePool`; when given, every
        :meth:`fit` runs its detection stage on these warm workers instead
        of starting a fresh pool (worth it when fitting many ensembles —
        threshold sweeps, figure experiments, services).
    """

    def __init__(
        self, config: EnsemFDetConfig | None = None, pool: ReusablePool | None = None
    ) -> None:
        self.config = config or EnsemFDetConfig()
        self.pool = pool

    def fit(
        self, graph: BipartiteGraph | GraphStore, track_members: bool | None = None
    ) -> EnsemFDetResult:
        """Plan, materialize + detect in parallel, and tally votes.

        ``track_members`` forces recording each sample's node labels on the
        returned detections; by default they are kept only when
        ``track_appearances`` needs them (the incremental layer passes
        ``True`` because its persistent state stores sample membership).

        ``graph`` may also be a :class:`~repro.graph.GraphStore` — in
        particular one opened from an mmap-backed store file — in which
        case process fan-outs ship its path+layout descriptor instead of
        graph bytes. A *windowed* store (liveness columns present)
        requires the :class:`~repro.sampling.StableEdgeSampler`: plans are
        drawn over the append-id space so membership matches the
        equivalent :meth:`fit_window` call bitwise.
        """
        config = self.config
        rng = resolve_rng(config.seed)
        track_members = self._resolve_track_members(track_members)

        source: BipartiteGraph | GraphStore = graph
        vote_graph = graph.to_graph() if isinstance(graph, GraphStore) else graph
        window = graph.edge_window() if isinstance(graph, GraphStore) else None

        with Timer() as sampling_timer:
            if window is not None:
                sampler = config.sampler
                if not isinstance(sampler, StableEdgeSampler):
                    raise DetectionError(
                        "fitting a windowed store requires StableEdgeSampler "
                        "(stripe membership is keyed by append id); compact "
                        "the window into a live graph for other samplers"
                    )
                # the id space in play: stripe membership is prefix-stable,
                # so planning over max-id+1 matches any larger watermark
                watermark = (
                    int(np.asarray(window.edge_ids).max()) + 1
                    if window.edge_ids.size
                    else 0
                )
                key = sampler.derive_key(rng)
                inclusion = sampler.stripe_inclusion(
                    sampler.n_stripes(watermark), config.n_samples, key
                )
                plans = [
                    sampler.stripe_plan(inclusion[i]) for i in range(config.n_samples)
                ]
            else:
                plans = config.sampler.plan_many(vote_graph, config.n_samples, rng)

        with Timer() as detection_timer:
            run, shard_plan = self._run(source, plans, track_members, window=None)

        return self._assemble(
            run, sampling_timer.elapsed, detection_timer.elapsed, vote_graph, shard_plan
        )

    def fit_window(
        self, window: LiveWindow, track_members: bool | None = None
    ) -> EnsemFDetResult:
        """Fit on the live edges of a rolling window.

        For the stripe-hash :class:`~repro.sampling.StableEdgeSampler`,
        membership is keyed by each edge's original *append id*, so this
        fit is the bitwise cold reference that windowed
        :meth:`~repro.ensemble.IncrementalEnsemFDet.update` calls must
        match: same key, stripe-inclusion matrix over the id space
        (``window.watermark``), and fan-out through the liveness overlay.
        Every other sampler family has no id-keyed structure to preserve
        and simply fits the compacted live graph.
        """
        config = self.config
        sampler = config.sampler
        if not isinstance(sampler, StableEdgeSampler):
            return self.fit(window.live_graph(), track_members)
        track_members = self._resolve_track_members(track_members)

        with Timer() as sampling_timer:
            key = sampler.derive_key(resolve_rng(config.seed))
            inclusion = sampler.stripe_inclusion(
                sampler.n_stripes(window.watermark), config.n_samples, key
            )
            plans = [sampler.stripe_plan(inclusion[i]) for i in range(config.n_samples)]

        with Timer() as detection_timer:
            run, shard_plan = self._run(
                window.graph, plans, track_members, window=window.edge_window()
            )

        return self._assemble(
            run, sampling_timer.elapsed, detection_timer.elapsed, window.graph, shard_plan
        )

    def _run(
        self,
        source: BipartiteGraph | GraphStore,
        plans: list,
        track_members: bool,
        window,
    ) -> tuple[MemberRun, ShardPlan | None]:
        """The detection stage: sharded when ``config.shards > 1``."""
        config = self.config
        if config.shards > 1:
            shard_plan = plan_shards(config.n_samples, config.shards)
            run = run_sharded(
                source,
                plans,
                config.fdet,
                shard_plan,
                mode=config.executor,
                n_workers=config.n_workers,
                pool=self.pool,
                track_members=track_members,
                shared_memory=config.shared_memory,
                tolerance=config.tolerance,
                window=window,
                mmap=config.mmap,
            )
            return run, shard_plan
        run = run_members(
            source,
            plans,
            config.fdet,
            mode=config.executor,
            n_workers=config.n_workers,
            pool=self.pool,
            track_members=track_members,
            shared_memory=config.shared_memory,
            tolerance=config.tolerance,
            window=window,
            mmap=config.mmap,
        )
        return run, None

    def _resolve_track_members(self, track_members: bool | None) -> bool:
        if track_members is None:
            return self.config.track_appearances
        if self.config.track_appearances and not track_members:
            raise DetectionError(
                "track_members=False contradicts track_appearances=True: "
                "appearance counts need each sample's membership"
            )
        return track_members

    def _assemble(
        self,
        run: MemberRun,
        sampling_seconds: float,
        detection_seconds: float,
        graph: BipartiteGraph | None = None,
        shard_plan: ShardPlan | None = None,
    ) -> EnsemFDetResult:
        config = self.config
        detections = _enforce_quorum(run, config)
        table = None
        if graph is not None:
            counters = None
            if shard_plan is not None:
                # shard-wise tallies summed — exactly the global tally
                # (integer votes); None falls through to the global paths
                grouped = [
                    [d for i in members if (d := run.detections[i]) is not None]
                    for members in shard_plan.members
                ]
                counters = merge_shard_votes(grouped, graph)
            if counters is None:
                counters = _batched.vote_counters(detections, graph)
            if counters is not None:
                table = VoteTable(
                    n_samples=len(detections),
                    user_votes=counters[0],
                    merchant_votes=counters[1],
                )
        if table is None:
            table = VoteTable.from_detections(
                [d.result.detected_users().tolist() for d in detections],
                [d.result.detected_merchants().tolist() for d in detections],
            )
        if config.track_appearances:
            table.attach_appearances(
                [d.sample_users for d in detections],
                [d.sample_merchants for d in detections],
            )
        return EnsemFDetResult(
            config=config,
            vote_table=table,
            sample_detections=tuple(detections),
            sampling_seconds=sampling_seconds,
            detection_seconds=detection_seconds,
            failed_members=run.failures,
            retry_log=run.retry_log,
        )

    def fit_detect(self, graph: BipartiteGraph, threshold: int) -> DetectionResult:
        """Convenience: fit then apply MVA at ``threshold`` in one call."""
        return self.fit(graph).detect(threshold)
