"""Batched FDET: many sampled members, or one whole graph, per kernel call.

This module drives the ``repro_fdet_batch`` entry point of
``_peel_kernel.c``: the parent's edge arrays are shared read-only, each
member is described only by its parent edge-id list, and the kernel
performs node compaction, CSR construction, the full block loop and the
peels for **all members in one call** — OpenMP-parallel across members
when available. Two callers:

* :func:`detect_many` — an ensemble fit's members, each derived straight
  from its :class:`~repro.sampling.SamplePlan` by
  :func:`~repro.sampling.base.plan_edge_ids` (edge, node and stripe plans
  alike; a window's members read from its
  :class:`~repro.graph.StripeIndex`), without materializing a subgraph;
* :func:`detect_graph` — ``Fdet.detect`` under the ``fast`` engine: the
  whole graph as one member, compaction skipped so every node (including
  nodes with no edge) stays in the peel, as in the reference engine.

Python keeps the thin, cold edges of the pipeline: eligibility gating,
plan→edge-id expansion, marshalling, truncation, and the vote tally over
the detected node indices (:func:`vote_counters`, one ``np.bincount`` per
side). Each member's :class:`FdetResult` keeps views of the kernel's
output slabs — node labels, packed block rows, densities, edge counts —
and builds :class:`~repro.fdet.Block` objects only when they are read;
the detected node indices come from one OR over the first ``k̂`` packed
rows (:meth:`FdetResult.node_mask`). Everything
the kernel computes is **bitwise identical** to the reference pipeline
(``materialize_plan`` + ``Fdet.detect`` with ``engine="reference"``) —
enforced by ``tests/fdet/test_batched_parity.py`` across sampler families,
window modes, unusual weights and execution backends.

Gating is conservative: the batch path only engages for the stock density
metrics (the :class:`LogWeightedDensity` / :class:`AverageDegreeDensity`
weight methods, not overridden) and the ``fast`` engine. Anything else —
metric subclasses with their own weights, the reference engine — runs
``materialize_plan`` + ``Fdet.detect`` member by member, as does a member
the kernel could not allocate. A load-time probe
additionally verifies that the kernel's pairwise summation reproduces
``np.sum`` bit for bit on this host and disables the batch path when it
does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import GraphValidationError, SamplingError
from ..graph import BipartiteGraph
from ..graph.window import EdgeWindow, StripeIndex
from ..sampling import SamplePlan
from ..sampling.base import plan_edge_ids
from ._native import NativeKernels, load_kernels
from .density import AverageDegreeDensity, DensityMetric, LogWeightedDensity
from .fdet import FdetConfig, FdetResult, WeightPolicy
from .peeling import PeelEngine

__all__ = [
    "NativeDetection",
    "batch_kernels",
    "config_eligible",
    "detect_graph",
    "detect_many",
    "plan_edge_ids",
    "vote_counters",
]

#: the degree-weight methods the kernel replicates through its degree table;
#: a metric with any other ``merchant_degree_weights``, or its own
#: ``edge_weights``, may weigh edges in ways the table cannot hold and takes
#: the blockwise Python loop
_DEGREE_WEIGHT_IMPLS = (
    LogWeightedDensity.merchant_degree_weights,
    AverageDegreeDensity.merchant_degree_weights,
)

_DUMMY_F64 = np.zeros(1, dtype=np.float64)
_EMPTY_I64 = np.empty(0, dtype=np.int64)

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
        and any(metric_cls.merchant_degree_weights is impl for impl in _DEGREE_WEIGHT_IMPLS)
    )


def _weight_table(metric: DensityMetric, max_degree: int) -> np.ndarray:
    """``degree -> edge multiplier`` lookup for degrees ``0..max_degree``.

    The caller bounds every merchant degree a member can have: a member's
    degree never exceeds its edge count, nor the parent's degree.
    ``np.log`` is elementwise position-independent, making ``table[d]``
    bitwise equal to evaluating the metric on the member's own degree
    array, whatever the table's length.
    """
    table = metric.merchant_degree_weights(np.arange(max_degree + 1, dtype=np.int64))
    return np.ascontiguousarray(table, dtype=np.float64)


@dataclass(frozen=True)
class NativeDetection:
    """One member's batched output, before runner-level wrapping.

    ``result`` labels the member subgraph's nodes (parent labels gathered
    over the member's compacted node set) and keeps the kernel's packed
    block rows; the ``detected_*_indices`` arrays are sorted unique
    **parent node indices** over the truncated blocks, feeding the vote
    tally.
    """

    result: FdetResult
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
    :class:`NativeDetection` per plan, with ``None`` in a slot whose plan
    names ids outside ``graph`` (or is not a stripe plan over a window) or
    whose member hit an in-kernel allocation failure; the other members
    still run. The caller re-runs just those members through
    ``materialize_plan`` + ``Fdet.detect``, which raises the plan's own
    error. The caller is responsible for eligibility
    (:func:`config_eligible`) and for fault points.
    """
    kernels = batch_kernels()
    if kernels is None or not plans:
        return None
    # one stripe index of the window's live rows serves every member
    stripes = set() if window is None else {plan.stripe for plan in plans}
    indexes = {stripe: StripeIndex(window, stripe) for stripe in stripes}
    slots, ids_list, scales = [], [], []
    for slot, plan in enumerate(plans):
        try:
            ids_list.append(plan_edge_ids(plan, graph, window, indexes.get(plan.stripe)))
        except (GraphValidationError, SamplingError):
            continue  # the caller's per-member path raises the plan's own error
        slots.append(slot)
        scales.append(1.0 if plan.weight_scale is None else float(plan.weight_scale))
    out: list[NativeDetection | None] = [None] * len(plans)
    if slots:
        scales = np.array(scales, dtype=np.float64)
        batch = _run_batch(kernels, graph, ids_list, scales, config, n_threads, all_nodes=False)
        for slot, detection in zip(slots, batch):
            out[slot] = detection
    return out


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

    counts = np.array([ids.size for ids in ids_list], dtype=np.int64)
    if all_nodes:
        degrees = graph.merchant_degrees()
        max_degree = int(degrees.max()) if degrees.size else 0
    else:
        max_degree = int(counts.max(initial=0))
    weight_table = _weight_table(config.metric, max_degree)
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

    out: list[NativeDetection | None] = []
    for m in range(n_members):
        if out_status[m] != 0:
            out.append(None)  # in-kernel allocation failure: member falls back
            continue
        nu = int(out_nu[m])
        nm = int(out_nm[m])
        ku = kept_users[int(ku_off[m]) : int(ku_off[m]) + nu]
        km = kept_merchants[int(km_off[m]) : int(km_off[m]) + nm]
        n_blocks = int(out_n_blocks[m])
        row_bytes = (nu + nm + 7) // 8
        base = int(mask_off[m])
        first = m * max_blocks
        densities = block_density[first : first + n_blocks]
        result = FdetResult(
            # an all-nodes member's node space is the graph's own (ku = 0..n-1)
            user_labels=graph.user_labels if all_nodes else graph.user_labels[ku],
            merchant_labels=graph.merchant_labels if all_nodes else graph.merchant_labels[km],
            block_rows=block_masks[base : base + n_blocks * row_bytes].reshape(n_blocks, row_bytes),
            densities=densities,
            edge_counts=block_n_edges[first : first + n_blocks],
            k_hat=config.truncation.truncate(densities.tolist()),
        )
        union = result.node_mask()
        out.append(
            NativeDetection(
                result=result,
                detected_user_indices=ku[union[:nu]],
                detected_merchant_indices=km[union[nu:]],
            )
        )
    return out


def vote_counters(
    user_indices: Sequence[np.ndarray],
    merchant_indices: Sequence[np.ndarray],
    graph: BipartiteGraph,
) -> tuple[np.ndarray, np.ndarray]:
    """Vote merge: each member's detected node indices → one count array per side.

    ``counts[i]`` is how many members detected node ``i`` of ``graph`` —
    one concatenate plus one ``np.bincount``. When two *voted* nodes share
    a label, a member counts that label once, on the first voted node
    carrying it (the others read 0), as a tally over labels would. Raises
    :class:`ValueError` for an index outside ``graph``.
    """
    users = _counts(user_indices, graph.user_labels)
    return users, _counts(merchant_indices, graph.merchant_labels)


def _counts(index_arrays: Sequence[np.ndarray], labels: np.ndarray) -> np.ndarray:
    indices = np.concatenate([_EMPTY_I64, *index_arrays])
    if indices.size and (indices.min() < 0 or indices.max() >= labels.size):
        raise ValueError("a detected node index lies outside the graph")
    counts = np.bincount(indices, minlength=labels.size)
    hit = np.flatnonzero(counts)
    voted = np.sort(labels[hit])
    if not np.any(voted[1:] == voted[:-1]):
        return counts
    # voted nodes share a label: each member counts it once, on its first voted node
    _, first, inverse = np.unique(labels[hit], return_index=True, return_inverse=True)
    canonical = np.arange(labels.size)
    canonical[hit] = hit[first][inverse]
    per_member = [np.unique(canonical[member]) for member in index_arrays]
    return np.bincount(np.concatenate([_EMPTY_I64, *per_member]), minlength=labels.size)
