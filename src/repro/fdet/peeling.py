"""Greedy min-degree peeling — the inner loop of FDET (Algorithm 1, l.3–8).

Given per-edge weights (and optional per-node priors), repeatedly remove the
node whose removal loses the least total weight, score every intermediate
graph ``H_n ⊃ H_{n-1} ⊃ … ⊃ H_1`` with ``density = weight / |nodes|``, and
return the best prefix. With a lazy-deletion binary heap each removal costs
``O(log(|U|+|V|))``, giving the paper's ``O(|E| log(|U|+|V|))`` bound per
block.

This is Charikar's classic 1/2-approximation for the average-degree
objective, applied to the log-weighted metric exactly as Fraudar does.

Two interchangeable engines implement the peel (select with the ``engine``
argument, or per-detector via :attr:`repro.fdet.FdetConfig.engine`):

* ``"reference"`` — the original pure-Python ``heapq`` walk over the
  graph's CSR adjacency. Easiest to audit; the semantic oracle, and what
  hosts without a C compiler run.
* ``"fast"`` (default) — the compiled C kernel (``_peel_kernel.c``, loaded
  through :mod:`._native`) over a flattened CSR of the graph. Produces
  bitwise-identical :class:`PeelResult`s — same tie-breaking (smallest node
  id first), same float64 operation order — at a large constant-factor
  speedup. With no kernel on the host it runs the reference engine.

``Fdet.detect`` runs its whole block loop in the kernel's batched entry
point (:mod:`.batched`); the single peel here serves :func:`greedy_peel`,
:meth:`repro.fdet.Fdet.densest_block` and the per-block loop of metrics the
batch cannot take.
"""

from __future__ import annotations

import ctypes
import heapq
from dataclasses import dataclass

import numpy as np

from ..errors import DetectionError
from ..graph import BipartiteGraph
from ._native import load_kernels

__all__ = ["PeelResult", "PeelEngine", "greedy_peel"]


class PeelEngine:
    """Names of the interchangeable peeling backends."""

    REFERENCE = "reference"
    FAST = "fast"
    ALL = (REFERENCE, FAST)
    DEFAULT = FAST


@dataclass(frozen=True)
class PeelResult:
    """Outcome of one full peel of a graph.

    Attributes
    ----------
    user_mask, merchant_mask:
        Boolean masks (over the *input graph's* local indices) selecting the
        densest prefix found.
    density:
        Density score of that prefix.
    n_removed:
        How many nodes were peeled off before the best prefix was reached.
    densities:
        Density after each removal; ``densities[j]`` is the score with ``j``
        nodes removed (``densities[0]`` scores the whole input graph).
    """

    user_mask: np.ndarray
    merchant_mask: np.ndarray
    density: float
    n_removed: int
    densities: np.ndarray

    @property
    def n_users(self) -> int:
        """Users in the detected prefix."""
        return int(self.user_mask.sum())

    @property
    def n_merchants(self) -> int:
        """Merchants in the detected prefix."""
        return int(self.merchant_mask.sum())

    @property
    def n_nodes(self) -> int:
        """Total nodes in the detected prefix."""
        return self.n_users + self.n_merchants

    def edge_indices(self, graph: BipartiteGraph) -> np.ndarray:
        """Indices of ``graph``'s edges inside the detected prefix."""
        mask = self.user_mask[graph.edge_users] & self.merchant_mask[graph.edge_merchants]
        return np.nonzero(mask)[0]


def _empty_result() -> PeelResult:
    return PeelResult(
        user_mask=np.zeros(0, dtype=bool),
        merchant_mask=np.zeros(0, dtype=bool),
        density=0.0,
        n_removed=0,
        densities=np.zeros(0, dtype=np.float64),
    )


def _build_priors(
    n_users: int,
    n_merchants: int,
    user_weights: np.ndarray | None,
    merchant_weights: np.ndarray | None,
) -> np.ndarray:
    """Dense per-node prior array over the combined index space."""
    priors = np.zeros(n_users + n_merchants, dtype=np.float64)
    if user_weights is not None:
        priors[:n_users] = user_weights
    if merchant_weights is not None:
        priors[n_users:] = merchant_weights
    return priors


def resolve_engine(engine: str | None) -> str:
    """Validate an engine name, mapping ``None`` to the default."""
    if engine is None:
        return PeelEngine.DEFAULT
    if engine not in PeelEngine.ALL:
        raise DetectionError(f"engine must be one of {PeelEngine.ALL}, got {engine!r}")
    return engine


def greedy_peel(
    graph: BipartiteGraph,
    edge_weights: np.ndarray,
    user_weights: np.ndarray | None = None,
    merchant_weights: np.ndarray | None = None,
    engine: str | None = None,
) -> PeelResult:
    """Peel ``graph`` greedily and return its densest prefix.

    Parameters
    ----------
    graph:
        The bipartite graph to peel.
    edge_weights:
        One non-negative weight per edge (see
        :meth:`repro.fdet.density.DensityMetric.edge_weights`).
    user_weights, merchant_weights:
        Optional non-negative per-node priors added to the objective.
    engine:
        One of :class:`PeelEngine` (default ``"fast"``). Both engines return
        identical results; see the module docstring.

    Notes
    -----
    Ties are broken by heap order (smallest node id first), which makes the
    peel deterministic for a given input — under either engine.
    """
    if edge_weights.shape[0] != graph.n_edges:
        raise DetectionError("edge_weights length does not match graph edge count")
    if graph.n_nodes == 0:
        return _empty_result()
    priors = _build_priors(graph.n_users, graph.n_merchants, user_weights, merchant_weights)
    return _peel(graph, edge_weights, priors, resolve_engine(engine))


def _peel(
    graph: BipartiteGraph,
    edge_weights: np.ndarray,
    priors: np.ndarray,
    engine: str,
) -> PeelResult:
    """One peel of a graph with at least one node on a resolved ``engine``.

    ``fast`` runs the C kernel, and the reference walk when the host has no
    kernel or the kernel runs out of memory.
    """
    peeled = _native_peel(graph, edge_weights, priors) if engine == PeelEngine.FAST else None
    if peeled is None:
        peeled = _reference_peel(graph, edge_weights, priors)
    removal_order, densities, best_density, best_removed = peeled
    # the best prefix: every node still alive after `best_removed` pops
    keep = np.ones(graph.n_nodes, dtype=bool)
    keep[removal_order[:best_removed]] = False
    return PeelResult(
        user_mask=keep[: graph.n_users],
        merchant_mask=keep[graph.n_users :],
        density=float(best_density),
        n_removed=int(best_removed),
        densities=densities,
    )


def _priorities(
    graph: BipartiteGraph, edge_weights: np.ndarray, priors: np.ndarray
) -> tuple[np.ndarray, float]:
    """Initial node priorities and the objective's total, in reference order.

    A node's priority is its prior plus the sum of its alive incident edge
    weights; removing the node lowers the total by exactly this amount.
    """
    priority = priors.copy()
    np.add.at(priority, graph.edge_users, edge_weights)
    np.add.at(priority, graph.n_users + graph.edge_merchants, edge_weights)
    return priority, float(priors.sum() + edge_weights.sum())


#: ``(removal_order, densities, best_density, best_removed)`` of one peel
_Peeled = tuple[np.ndarray, np.ndarray, float, int]


def _native_peel(
    graph: BipartiteGraph, edge_weights: np.ndarray, priors: np.ndarray
) -> _Peeled | None:
    """The C kernel's peel; ``None`` when there is no kernel or it ran out of memory.

    Flattens the graph into one CSR over the joint node index space (user
    ``u`` is node ``u``, merchant ``m`` is node ``n_users + m``) with
    half-edges in the graph's adjacency order, so ties break as in the
    reference walk.
    """
    kernels = load_kernels()
    if kernels is None:
        return None
    n_users = graph.n_users
    priority, total = _priorities(graph, edge_weights, priors)
    user_indptr, user_edges = graph.user_adjacency()
    merchant_indptr, merchant_edges = graph.merchant_adjacency()
    indptr = np.concatenate([user_indptr, user_indptr[-1] + merchant_indptr[1:]])
    flat_other = np.concatenate(
        [n_users + graph.edge_merchants[user_edges], graph.edge_users[merchant_edges]]
    )
    flat_w = edge_weights[np.concatenate([user_edges, merchant_edges])]
    removal_order = np.empty(graph.n_nodes, dtype=np.int64)
    densities = np.empty(graph.n_nodes, dtype=np.float64)
    best_density = ctypes.c_double()
    best_removed = ctypes.c_int64()
    removed = kernels.greedy_peel(
        graph.n_nodes,
        np.ascontiguousarray(indptr, dtype=np.int64),
        np.ascontiguousarray(flat_other, dtype=np.int64),
        np.ascontiguousarray(flat_w, dtype=np.float64),
        priority,
        total,
        removal_order,
        densities,
        ctypes.byref(best_density),
        ctypes.byref(best_removed),
    )
    if removed < 0:  # allocation failure inside the kernel
        return None
    return removal_order, densities[: removed + 1].copy(), best_density.value, best_removed.value


def _reference_peel(
    graph: BipartiteGraph, edge_weights: np.ndarray, priors: np.ndarray
) -> _Peeled:
    """The original heapq engine — the oracle the fast engine must match."""
    n_users = graph.n_users
    n = n_users + graph.n_merchants
    priority, total = _priorities(graph, edge_weights, priors)

    user_indptr, user_edge_idx = graph.user_adjacency()
    merchant_indptr, merchant_edge_idx = graph.merchant_adjacency()
    edge_users = graph.edge_users
    edge_merchants = graph.edge_merchants

    alive = np.ones(n, dtype=bool)
    edge_alive = np.ones(graph.n_edges, dtype=bool)
    heap: list[tuple[float, int]] = [(float(priority[node]), node) for node in range(n)]
    heapq.heapify(heap)

    densities = np.empty(n, dtype=np.float64)
    densities[0] = total / n
    removal_order = np.empty(n, dtype=np.int64)

    best_density = densities[0]
    best_removed = 0
    n_alive = n
    removed = 0

    while n_alive > 1:
        current_priority, node = heapq.heappop(heap)
        if not alive[node] or current_priority > priority[node] + 1e-12:
            continue  # stale heap entry (node removed or priority since lowered)
        alive[node] = False
        removal_order[removed] = node
        removed += 1
        n_alive -= 1
        total -= float(priority[node])

        # retire the node's alive incident edges, lowering neighbours
        if node < n_users:
            span = user_edge_idx[user_indptr[node] : user_indptr[node + 1]]
            for edge in span.tolist():
                if edge_alive[edge]:
                    edge_alive[edge] = False
                    other = n_users + int(edge_merchants[edge])
                    priority[other] -= edge_weights[edge]
                    heapq.heappush(heap, (float(priority[other]), other))
        else:
            merchant = node - n_users
            span = merchant_edge_idx[merchant_indptr[merchant] : merchant_indptr[merchant + 1]]
            for edge in span.tolist():
                if edge_alive[edge]:
                    edge_alive[edge] = False
                    other = int(edge_users[edge])
                    priority[other] -= edge_weights[edge]
                    heapq.heappush(heap, (float(priority[other]), other))

        density = total / n_alive
        densities[removed] = density
        if density > best_density:
            best_density = density
            best_removed = removed

    return removal_order, densities[: removed + 1].copy(), best_density, best_removed
