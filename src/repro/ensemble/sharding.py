"""Stripe-sharded ensemble execution: K shard stores, one vote table.

A fit at ``N`` samples touches the full parent edge set ``N·S`` times; for
10M+-edge graphs that working set dwarfs RAM even with the mmap transport.
Sharding exploits the ensemble's own structure: members are independent
until the vote tally, so they can be partitioned into ``K`` contiguous
groups and each group run against a **shard store** that contains only the
edges its members actually sample — the union of their per-member edge
sets, typically ``(1 - (1-S)^{N/K})·|E|`` rows instead of ``|E|``.

Bitwise parity is the contract, achieved by construction:

* a shard store keeps the parent's **full node space** (sizes and label
  arrays by reference), so every worker-side node compaction, label gather
  and detected-node index is in parent coordinates, unchanged;
* each member's plan is rewritten to an ``"edges"``-kind plan over shard
  rows that reproduces the member's parent edge sequence *in the same
  order* (ascending for stripe/window masks, plan order for edge plans) —
  so adjacency construction and peel tie-breaking are identical;
* liveness overlays are folded into the shard rows at partition time, so
  windowed fits shard exactly like frozen ones;
* the surviving members of all shards are tallied together, over parent
  node indices, by the :func:`~repro.ensemble.voting.tally_votes` an
  unsharded fit uses — there is no per-shard tally to merge.

Works for any sampler whose plans reduce to parent edge-id lists ("edges"
and "stripes" kinds — RES and the stable sampler); node-kind plans depend
on cross-member node structure and raise :class:`~repro.errors.DetectionError`.

With ``mmap=True`` each shard store is spilled to a temporary store file
and reopened as a lazy map before its members run, so the parent process
holds at most one shard's columns resident at a time — the out-of-core
configuration ``benchmarks/bench_scale.py`` measures.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import DetectionError
from ..fdet import FdetConfig
from ..fdet import batched as _batched
from ..graph import BipartiteGraph, GraphStore
from ..graph.window import EdgeWindow
from ..parallel import ExecutorMode, FaultTolerance, ReusablePool
from ..sampling import SamplePlan, compact_indices
from .runner import MemberRun, SampleDetection, run_members

__all__ = ["ShardPlan", "plan_shards", "run_sharded"]


@dataclass(frozen=True)
class ShardPlan:
    """Contiguous member-index groups, one per shard."""

    members: tuple[tuple[int, ...], ...]

    @property
    def n_shards(self) -> int:
        """Number of (non-empty) shards."""
        return len(self.members)


def plan_shards(n_samples: int, n_shards: int) -> ShardPlan:
    """Partition ``n_samples`` member indices into ``n_shards`` groups.

    Contiguous near-equal groups (the same split :func:`_chunked` gives the
    process fan-out), capped at one member per shard — asking for more
    shards than members just yields fewer shards.
    """
    if n_shards < 1:
        raise DetectionError(f"n_shards must be >= 1, got {n_shards}")
    n_shards = min(int(n_shards), int(n_samples))
    base, extra = divmod(int(n_samples), n_shards)
    groups = []
    start = 0
    for index in range(n_shards):
        size = base + (1 if index < extra else 0)
        groups.append(tuple(range(start, start + size)))
        start += size
    return ShardPlan(members=tuple(groups))


def _member_parent_ids(
    plan: SamplePlan, n_edges: int, window: EdgeWindow | None
) -> np.ndarray:
    """The parent edge ids one member keeps, in its materialization order."""
    if plan.kind not in ("edges", "stripes"):
        raise DetectionError(
            f"sharding requires plans that reduce to parent edge lists "
            f"('edges'/'stripes'), got {plan.kind!r} — run unsharded (shards=1)"
        )
    if window is not None and plan.kind != "stripes":
        raise DetectionError(
            f"windowed sharding requires stripe plans, got {plan.kind!r}"
        )
    return _batched.plan_edge_ids(plan, n_edges, window)


def _shard_store(parent: GraphStore, rows: np.ndarray) -> GraphStore:
    """The shard's store: selected parent rows, full parent node space.

    Label arrays are shared by reference (they stay in parent coordinates);
    edge columns are gathered in storage dtype, so a compact parent yields
    a compact shard — and gathering from an mmap-backed parent reads only
    the pages the shard's rows live on.
    """
    return GraphStore(
        n_users=parent.n_users,
        n_merchants=parent.n_merchants,
        edge_users=np.ascontiguousarray(parent.edge_users[rows]),
        edge_merchants=np.ascontiguousarray(parent.edge_merchants[rows]),
        edge_weights=(
            None
            if parent.edge_weights is None
            else np.ascontiguousarray(parent.edge_weights[rows])
        ),
        user_labels=parent.user_labels,
        merchant_labels=parent.merchant_labels,
    )


def run_sharded(
    graph: BipartiteGraph | GraphStore,
    plans: Sequence[SamplePlan],
    config: FdetConfig,
    shard_plan: ShardPlan,
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
    """Run every member through its shard store; results in global order.

    Shards execute sequentially (members inside a shard fan out across the
    configured backend as usual), which is what bounds the parent's peak
    RSS to roughly one shard's store in the ``mmap`` configuration. Each
    shard's :func:`~repro.ensemble.runner.run_members` call keeps the full
    fault-tolerance machinery — retries, backend degradation, transport
    fallback, typed failures — and its retry-log entries come back tagged
    with the shard index. Failures across shards combine into one
    :class:`~repro.ensemble.runner.MemberRun`, so quorum enforcement sees
    the whole fit.
    """
    plans = list(plans)
    store = graph if isinstance(graph, GraphStore) else GraphStore.from_graph(graph, window)
    if window is None:
        window = store.edge_window()
    n_edges = store.n_edges

    detections: list[SampleDetection | None] = [None] * len(plans)
    failures = []
    retry_log: list[dict] = []
    errors: dict[int, BaseException] = {}

    for shard_index, members in enumerate(shard_plan.members):
        if not members:
            continue
        # union of the shard's member edge sets -> shard rows (ascending)
        union = np.zeros(n_edges, dtype=bool)
        member_ids = []
        for index in members:
            ids = _member_parent_ids(plans[index], n_edges, window)
            member_ids.append(ids)
            union[ids] = True
        rows = np.nonzero(union)[0]
        del union

        # rewrite each member over shard-row coordinates, preserving order
        shard_plans = [
            SamplePlan(
                kind="edges",
                edge_indices=compact_indices(np.searchsorted(rows, ids), rows.size),
                weight_scale=plans[index].weight_scale,
            )
            for index, ids in zip(members, member_ids)
        ]
        del member_ids

        shard = _shard_store(store, rows)
        del rows
        spill_dir: str | None = None
        try:
            if mmap:
                # spill the shard and drop the resident copy before running:
                # the parent keeps only lazy views of one shard at a time
                spill_dir = tempfile.mkdtemp(prefix="repro_gs_shard_")
                path = os.path.join(spill_dir, f"shard{shard_index}.store")
                shard.save(path)
                shard = GraphStore.open(path, mmap=True)
            run = run_members(
                shard,
                shard_plans,
                config,
                mode=mode,
                n_workers=n_workers,
                engine=engine,
                pool=pool,
                track_members=track_members,
                shared_memory=shared_memory,
                tolerance=tolerance,
                window=None,  # liveness already folded into the shard rows
            )
        finally:
            if spill_dir is not None:
                shutil.rmtree(spill_dir, ignore_errors=True)

        # remap the shard-local results back to global member indices
        for local, detection in enumerate(run.detections):
            detections[members[local]] = detection
        for failure in run.failures:
            failures.append(
                type(failure)(
                    index=members[failure.index],
                    kind=failure.kind,
                    error=failure.error,
                    attempts=failure.attempts,
                )
            )
        for entry in run.retry_log:
            retry_log.append(
                {
                    **entry,
                    "shard": shard_index,
                    "members": [int(members[i]) for i in entry["members"]],
                    "failed": [int(members[i]) for i in entry["failed"]],
                    "kinds": {
                        str(members[int(i)]): kind for i, kind in entry["kinds"].items()
                    },
                }
            )
        for local, error in (run.errors or {}).items():
            errors[members[local]] = error

    return MemberRun(
        detections=detections,
        failures=tuple(sorted(failures, key=lambda f: f.index)),
        retry_log=tuple(retry_log),
        errors=errors or None,
    )
