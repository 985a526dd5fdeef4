"""Batched FDET: many sampled members, or one whole graph, per kernel call.

This module drives the ``repro_fdet_batch`` entry point of
``_peel_kernel.c``: the parent's edge arrays are shared read-only, each
member is described only by its parent edge-id list, and the kernel
performs node compaction, CSR construction, the full block loop and the
peels for **all members in one call** — OpenMP-parallel across members
when available. Two callers:

* :func:`detect_many` — an ensemble fit's members, each derived straight
  from its :class:`~repro.sampling.SamplePlan` (windowed liveness AND-ed
  in), without materializing a subgraph;
* :func:`detect_graph` — ``Fdet.detect`` under the ``fast`` engine: the
  whole graph as one member, compaction skipped so every node (including
  nodes with no edge) stays in the peel, as in the reference engine.

Python keeps the thin, cold edges of the pipeline: eligibility gating,
plan→edge-id expansion, marshalling, truncation, :class:`Block` /
:class:`FdetResult` assembly, and the native vote-merge helpers. Everything
the kernel computes is **bitwise identical** to the reference pipeline
(``materialize_plan`` + ``Fdet.detect`` with ``engine="reference"``) —
enforced by ``tests/fdet/test_batched_parity.py`` across sampler families,
window modes, unusual weights and execution backends.

Gating is conservative: the batch path only engages for the stock density
metrics (:class:`LogWeightedDensity` / :class:`AverageDegreeDensity`
implementations, no prior hooks), the ``fast`` engine, and (for ensemble
members) edge-index or stripe-row plans. Anything else — node-kind plans,
custom metrics, the reference engine — runs ``materialize_plan`` +
``Fdet.detect`` member by member. A load-time probe additionally verifies
that the kernel's pairwise summation reproduces ``np.sum`` bit for bit on
this host and disables the batch path when it does not.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..graph import BipartiteGraph
from ..graph.window import EdgeWindow
from ..sampling import SamplePlan
from ._native import NativeKernels, load_kernels
from .density import AverageDegreeDensity, DensityMetric, LogWeightedDensity
from .fdet import Block, FdetConfig, FdetResult, WeightPolicy
from .peeling import PeelEngine

__all__ = [
    "NativeDetection",
    "batch_kernels",
    "config_eligible",
    "detect_graph",
    "detect_many",
    "plan_eligible",
    "plan_edge_ids",
    "vote_counters",
]

#: metric implementations the kernel replicates; a subclass overriding any of
#: these (or the prior hooks) peels positions-dependently for all we know and
#: must take the blockwise Python loop
_DEGREE_WEIGHT_IMPLS = (
    LogWeightedDensity.merchant_degree_weights,
    AverageDegreeDensity.merchant_degree_weights,
)

_DUMMY_F64 = np.zeros(1, dtype=np.float64)

#: None = probe not yet run, else its verdict (per process)
_probe_verdict: bool | None = None


def _probe(kernels: NativeKernels) -> bool:
    """Does the kernel's pairwise sum match ``np.sum`` bitwise on this host?

    The batch path reproduces ``edge_weights.sum()`` in C; numpy's pairwise
    blocking is an implementation detail, so on an exotic build the replica
    could drift by an ulp. One cheap deterministic check at first use keeps
    the bitwise guarantee honest — any mismatch disables batching entirely.
    """
    rng = np.random.default_rng(20260808)
    for size in (0, 1, 7, 8, 127, 128, 129, 1000, 4097, 12345):
        values = np.ascontiguousarray(rng.random(size))
        if kernels.pairwise_sum(values, size) != float(np.sum(values)):
            return False
    return True


def batch_kernels() -> NativeKernels | None:
    """The kernel handle iff the batch path may be used on this host."""
    kernels = load_kernels()
    if kernels is None:
        return None
    global _probe_verdict
    if _probe_verdict is None:
        _probe_verdict = _probe(kernels)
    return kernels if _probe_verdict else None


def config_eligible(config: FdetConfig) -> bool:
    """Can this FDET configuration run through the batched kernel?"""
    metric_cls = type(config.metric)
    return (
        config.engine == PeelEngine.FAST
        and metric_cls.edge_weights is DensityMetric.edge_weights
        and metric_cls.user_weights is DensityMetric.user_weights
        and metric_cls.merchant_weights is DensityMetric.merchant_weights
        and any(metric_cls.merchant_degree_weights is impl for impl in _DEGREE_WEIGHT_IMPLS)
    )


def plan_eligible(plan: SamplePlan) -> bool:
    """Edge-index and stripe-row plans reduce to parent edge-id lists."""
    return plan.kind in ("edges", "stripes")


def plan_edge_ids(
    plan: SamplePlan, n_edges: int, window: EdgeWindow | None = None
) -> np.ndarray:
    """The parent edge ids ``plan`` keeps — no subgraph construction.

    Mirrors :func:`repro.sampling.materialize_plan` exactly: windowed
    stripe lookup by append id with the liveness overlay AND-ed in,
    positional stripe expansion otherwise, and the raw index list for
    edge-kind plans. Order matters — edge-kind ids stay in plan (chosen)
    order, mask-derived ids come out ascending — because the member's
    edge order defines its adjacency and peel tie-breaking.
    """
    if window is not None:
        ids = window.edge_ids if plan.stripe == 1 else window.edge_ids // plan.stripe
        mask = plan.stripe_row[ids] & window.alive
        return np.nonzero(mask)[0]
    if plan.kind == "edges":
        return np.ascontiguousarray(plan.edge_indices, dtype=np.int64)
    if plan.kind == "stripes":
        row = plan.stripe_row
        mask = row[:n_edges] if plan.stripe == 1 else np.repeat(row, plan.stripe)[:n_edges]
        return np.nonzero(mask)[0]
    raise ValueError(f"plan kind {plan.kind!r} has no native edge-id path")


def _weight_table(metric: DensityMetric, graph: BipartiteGraph) -> np.ndarray:
    """``degree -> edge multiplier`` lookup covering every possible degree.

    A member's merchant degrees never exceed the parent's (member edges are
    a subset), so a table over ``0..max_parent_degree`` covers every value
    the kernel can look up. ``np.log`` is elementwise position-independent,
    making ``table[d]`` bitwise equal to evaluating the metric on the
    member's own degree array.
    """
    degrees = graph.merchant_degrees()
    max_degree = int(degrees.max()) if degrees.size else 0
    table = metric.merchant_degree_weights(np.arange(max_degree + 1, dtype=np.int64))
    return np.ascontiguousarray(table, dtype=np.float64)


@dataclass(frozen=True)
class NativeDetection:
    """One member's batched output, before runner-level wrapping.

    ``user_labels`` / ``merchant_labels`` are the member subgraph's node
    labels (parent labels gathered over the member's compacted node set);
    the ``detected_*_indices`` arrays are sorted unique **parent node
    indices** over the truncated blocks, feeding the native vote merge.
    """

    result: FdetResult
    user_labels: np.ndarray
    merchant_labels: np.ndarray
    detected_user_indices: np.ndarray
    detected_merchant_indices: np.ndarray


def detect_many(
    graph: BipartiteGraph,
    plans: Sequence[SamplePlan],
    config: FdetConfig,
    window: EdgeWindow | None = None,
    n_threads: int = 1,
) -> list[NativeDetection | None] | None:
    """Run FDET for every plan in one kernel call.

    Returns ``None`` when the batch path is unavailable; otherwise one
    :class:`NativeDetection` per plan, with ``None`` in a slot whose
    member hit an in-kernel allocation failure (the caller re-runs just
    that member through ``materialize_plan`` + ``Fdet.detect``). The
    caller is responsible for eligibility (:func:`config_eligible` /
    :func:`plan_eligible`) and for fault points.
    """
    kernels = batch_kernels()
    if kernels is None or not plans:
        return None
    ids_list = [plan_edge_ids(plan, graph.n_edges, window) for plan in plans]
    scales = np.array(
        [1.0 if plan.weight_scale is None else float(plan.weight_scale) for plan in plans],
        dtype=np.float64,
    )
    return _run_batch(kernels, graph, ids_list, scales, config, n_threads, all_nodes=False)


def detect_graph(graph: BipartiteGraph, config: FdetConfig) -> FdetResult | None:
    """FDET on the whole of ``graph`` as one kernel member.

    The member keeps every node of ``graph``, edgeless ones included, so it
    peels exactly the node set the reference engine peels. ``None`` when the
    kernel cannot take ``config`` (see :func:`config_eligible`), is missing
    on this host, or ran out of memory.
    """
    kernels = batch_kernels() if config_eligible(config) else None
    if kernels is None:
        return None
    ids = np.arange(graph.n_edges, dtype=np.int64)
    (detection,) = _run_batch(
        kernels, graph, [ids], np.ones(1), config, n_threads=1, all_nodes=True
    )
    return None if detection is None else detection.result


def _run_batch(
    kernels: NativeKernels,
    graph: BipartiteGraph,
    ids_list: list[np.ndarray],
    scales: np.ndarray,
    config: FdetConfig,
    n_threads: int,
    all_nodes: bool,
) -> list[NativeDetection | None]:
    """One ``repro_fdet_batch`` call over members given as parent edge ids.

    With ``all_nodes`` the kernel skips node compaction: each member's node
    space is the whole parent rather than the nodes its edges touch.
    """
    n_members = len(ids_list)
    max_blocks = config.max_blocks
    # compact (int32/float32) parent columns — including read-only mmap
    # views — cross the ABI in their storage dtype; the kernel widens each
    # load, so no resident int64/float64 copy of the parent is ever built
    if graph.edge_users.dtype == graph.edge_merchants.dtype and graph.edge_users.dtype in (
        np.dtype(np.int32),
        np.dtype(np.int64),
    ):
        p_eu = np.ascontiguousarray(graph.edge_users)
        p_em = np.ascontiguousarray(graph.edge_merchants)
    else:
        p_eu = np.ascontiguousarray(graph.edge_users, dtype=np.int64)
        p_em = np.ascontiguousarray(graph.edge_merchants, dtype=np.int64)
    idx_width = p_eu.dtype.itemsize
    has_weights = graph.edge_weights is not None
    if has_weights:
        if graph.edge_weights.dtype in (np.dtype(np.float32), np.dtype(np.float64)):
            p_w = np.ascontiguousarray(graph.edge_weights)
        else:
            p_w = np.ascontiguousarray(graph.edge_weights, dtype=np.float64)
    else:
        p_w = _DUMMY_F64
    w_width = p_w.dtype.itemsize
    weight_table = _weight_table(config.metric, graph)

    counts = np.array([ids.size for ids in ids_list], dtype=np.int64)
    edge_off = np.zeros(n_members + 1, dtype=np.int64)
    np.cumsum(counts, out=edge_off[1:])
    edge_ids = (
        np.ascontiguousarray(np.concatenate(ids_list), dtype=np.int64)
        if int(edge_off[-1])
        else np.empty(0, dtype=np.int64)
    )

    # output slabs, sized by per-member upper bounds (a member touches at
    # most min(|edges|, parent side size) nodes per side; all of them under
    # all_nodes)
    if all_nodes:
        nu_bounds = np.full(n_members, graph.n_users, dtype=np.int64)
        nm_bounds = np.full(n_members, graph.n_merchants, dtype=np.int64)
    else:
        nu_bounds = np.minimum(counts, graph.n_users)
        nm_bounds = np.minimum(counts, graph.n_merchants)
    ku_off = np.zeros(n_members + 1, dtype=np.int64)
    np.cumsum(nu_bounds, out=ku_off[1:])
    km_off = np.zeros(n_members + 1, dtype=np.int64)
    np.cumsum(nm_bounds, out=km_off[1:])
    row_bounds = (nu_bounds + nm_bounds + 7) // 8
    mask_off = np.zeros(n_members + 1, dtype=np.int64)
    np.cumsum(max_blocks * row_bounds, out=mask_off[1:])

    out_status = np.zeros(n_members, dtype=np.int64)
    out_nu = np.zeros(n_members, dtype=np.int64)
    out_nm = np.zeros(n_members, dtype=np.int64)
    out_n_blocks = np.zeros(n_members, dtype=np.int64)
    kept_users = np.zeros(max(1, int(ku_off[-1])), dtype=np.int64)
    kept_merchants = np.zeros(max(1, int(km_off[-1])), dtype=np.int64)
    block_density = np.zeros(n_members * max_blocks, dtype=np.float64)
    block_n_edges = np.zeros(n_members * max_blocks, dtype=np.int64)
    block_masks = np.zeros(max(1, int(mask_off[-1])), dtype=np.uint8)

    kernels.fdet_batch(
        graph.n_users,
        graph.n_merchants,
        p_eu,
        p_em,
        idx_width,
        p_w,
        int(has_weights),
        w_width,
        weight_table,
        n_members,
        edge_ids,
        edge_off,
        scales,
        max_blocks,
        config.min_block_edges,
        float(config.min_density_ratio),
        int(config.weight_policy == WeightPolicy.FROZEN),
        int(all_nodes),
        int(n_threads),
        out_status,
        out_nu,
        out_nm,
        kept_users,
        ku_off,
        kept_merchants,
        km_off,
        out_n_blocks,
        block_density,
        block_n_edges,
        block_masks,
        mask_off,
    )

    user_labels_all = graph.user_labels
    merchant_labels_all = graph.merchant_labels
    out: list[NativeDetection | None] = []
    for m in range(n_members):
        if out_status[m] != 0:
            out.append(None)  # in-kernel allocation failure: member falls back
            continue
        nu = int(out_nu[m])
        nm = int(out_nm[m])
        n = nu + nm
        ku = kept_users[int(ku_off[m]) : int(ku_off[m]) + nu]
        km = kept_merchants[int(km_off[m]) : int(km_off[m]) + nm]
        member_user_labels = user_labels_all[ku]
        member_merchant_labels = merchant_labels_all[km]
        n_blocks = int(out_n_blocks[m])

        blocks: list[Block] = []
        bits = None
        if n_blocks:
            row_bytes = (n + 7) // 8
            base = int(mask_off[m])
            rows = block_masks[base : base + n_blocks * row_bytes]
            bits = np.unpackbits(
                rows.reshape(n_blocks, row_bytes), axis=1, bitorder="little"
            )[:, :n].astype(bool)
            for b in range(n_blocks):
                row = bits[b]
                blocks.append(
                    Block(
                        index=b,
                        user_labels=np.sort(member_user_labels[row[:nu]]),
                        merchant_labels=np.sort(member_merchant_labels[row[nu:]]),
                        density=float(block_density[m * max_blocks + b]),
                        n_edges=int(block_n_edges[m * max_blocks + b]),
                    )
                )
        k_hat = config.truncation.truncate([block.density for block in blocks])
        result = FdetResult(all_blocks=tuple(blocks), k_hat=k_hat)

        if k_hat > 0:
            union = bits[:k_hat].any(axis=0)
            detected_users = np.ascontiguousarray(ku[union[:nu]])
            detected_merchants = np.ascontiguousarray(km[union[nu:]])
        else:
            detected_users = np.empty(0, dtype=np.int64)
            detected_merchants = np.empty(0, dtype=np.int64)
        out.append(
            NativeDetection(
                result=result,
                user_labels=member_user_labels,
                merchant_labels=member_merchant_labels,
                detected_user_indices=detected_users,
                detected_merchant_indices=detected_merchants,
            )
        )
    return out


def vote_counters(
    detections: Sequence[object], graph: BipartiteGraph
) -> tuple[Counter, Counter] | None:
    """Native vote merge: per-member detected-index arrays → vote counters.

    Equal (as :class:`collections.Counter`) to tallying
    ``result.detected_users()`` labels member by member, provided every
    detection carries index arrays and no two *voted* node indices share a
    label (two such indices would collapse onto one label, and a member
    detecting both counts that label once). Duplicate labels among nodes
    nobody voted for are harmless, so the check runs on the voted indices
    only, after the tally. Returns ``None`` whenever those preconditions —
    or the kernel itself — are unavailable.
    """
    kernels = batch_kernels()
    if kernels is None or not detections:
        return None
    if any(
        getattr(d, "detected_user_indices", None) is None
        or getattr(d, "detected_merchant_indices", None) is None
        for d in detections
    ):
        return None

    def tally(index_arrays: Iterable[np.ndarray], labels: np.ndarray) -> Counter | None:
        votes = np.zeros(max(1, labels.size), dtype=np.int64)
        indices = np.ascontiguousarray(np.concatenate(list(index_arrays)), dtype=np.int64)
        if indices.size:
            kernels.accumulate_votes(indices, indices.size, votes)
        hit = np.nonzero(votes[: labels.size])[0]
        counter = Counter(dict(zip(labels[hit].tolist(), votes[hit].tolist())))
        return counter if len(counter) == hit.size else None

    user_votes = tally((d.detected_user_indices for d in detections), graph.user_labels)
    merchant_votes = tally(
        (d.detected_merchant_indices for d in detections), graph.merchant_labels
    )
    if user_votes is None or merchant_votes is None:
        return None
    return user_votes, merchant_votes
