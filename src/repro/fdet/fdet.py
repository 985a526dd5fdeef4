"""FDET — k-disjoint dense-block extraction (paper Algorithm 1).

The natural heuristic for the disjoint objective of Equ. 1: repeatedly

1. peel the current graph greedily and take the densest prefix (a block),
2. record the block's node labels and density,
3. remove the block's *edges* (nodes stay, so later blocks may reuse nodes
   that still have edges elsewhere — the returned blocks are edge-disjoint,
   and the density objective sums over them),

until the graph runs out of edges or ``max_blocks`` is reached, then apply a
truncating-point rule (Definition 3) to keep only the ``k̂`` meaningful
blocks. Like the paper's loop, it has no density-ratio stop: blocks whose
density falls away are extracted and then dropped by the truncating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..errors import DetectionError
from ..graph import BipartiteGraph
from .density import DensityMetric, LogWeightedDensity
from .peeling import PeelEngine, _peel
from .truncation import SecondDifferenceRule, TruncationRule

__all__ = ["Block", "FdetConfig", "FdetResult", "Fdet", "WeightPolicy"]


class WeightPolicy:
    """How the log-weights react to edge removal across FDET iterations.

    * ``REFRESH`` — recompute ``1/log(d_j + c)`` on the residual graph before
      every block (degrees shrink as blocks are carved out).
    * ``FROZEN`` — compute merchant degrees once on the input graph and keep
      the edge weights fixed (Fraudar's global-weights convention).

    The choice is ablated in ``benchmarks/bench_ablation_weights.py``.
    """

    REFRESH = "refresh"
    FROZEN = "frozen"
    ALL = (REFRESH, FROZEN)


def _residual_view(graph: BipartiteGraph, edge_alive: np.ndarray) -> BipartiteGraph:
    """The graph restricted to alive edges (node set and labels kept).

    Uses the trusted constructor: the arrays are masked views of an already
    validated graph, so the O(|E|) validation scan is skipped.
    """
    weights = graph.edge_weights[edge_alive] if graph.edge_weights is not None else None
    return BipartiteGraph._from_trusted(
        n_users=graph.n_users,
        n_merchants=graph.n_merchants,
        edge_users=graph.edge_users[edge_alive],
        edge_merchants=graph.edge_merchants[edge_alive],
        edge_weights=weights,
        user_labels=graph.user_labels,
        merchant_labels=graph.merchant_labels,
    )


@dataclass(frozen=True)
class Block:
    """One detected dense block ``G(S_i)``."""

    index: int
    user_labels: np.ndarray
    merchant_labels: np.ndarray
    density: float
    n_edges: int

    @property
    def n_users(self) -> int:
        """Users in the block."""
        return int(self.user_labels.size)

    @property
    def n_merchants(self) -> int:
        """Merchants in the block."""
        return int(self.merchant_labels.size)

    @property
    def n_nodes(self) -> int:
        """Total block size ``|S_i|``."""
        return self.n_users + self.n_merchants


@dataclass(frozen=True)
class FdetConfig:
    """Configuration of the FDET detector.

    Attributes
    ----------
    metric:
        Density metric; defaults to the paper's ``φ`` (log-weighted, c=5).
    max_blocks:
        Upper bound on blocks extracted before truncation. The paper
        observes ``k̂`` in the "few to few tens" range; 30 (the Fraudar
        fixed-K used in Table III) is a safe ceiling.
    truncation:
        Truncating-point rule (Definition 3 by default).
    weight_policy:
        See :class:`WeightPolicy`.
    min_block_edges:
        Extraction stops when the best block has fewer edges than this.
    engine:
        Peeling backend, one of :class:`repro.fdet.PeelEngine`
        (``"reference"`` or ``"fast"``; default ``"fast"``). Both produce
        identical detections; under ``fast``, ``detect`` runs its whole
        block loop in the native kernel.
    """

    metric: DensityMetric = field(default_factory=LogWeightedDensity)
    max_blocks: int = 30
    truncation: TruncationRule = field(default_factory=SecondDifferenceRule)
    weight_policy: str = WeightPolicy.REFRESH
    min_block_edges: int = 1
    engine: str = PeelEngine.DEFAULT

    def __post_init__(self) -> None:
        if self.max_blocks < 1:
            raise DetectionError(f"max_blocks must be >= 1, got {self.max_blocks}")
        if self.weight_policy not in WeightPolicy.ALL:
            raise DetectionError(
                f"weight_policy must be one of {WeightPolicy.ALL}, got {self.weight_policy!r}"
            )
        if self.engine not in PeelEngine.ALL:
            raise DetectionError(
                f"engine must be one of {PeelEngine.ALL}, got {self.engine!r}"
            )
        if self.min_block_edges < 1:
            raise DetectionError(f"min_block_edges must be >= 1, got {self.min_block_edges}")


@dataclass(frozen=True, eq=False)
class FdetResult:
    """Everything FDET found on one graph, kept as the arrays the peels wrote.

    ``user_labels`` / ``merchant_labels`` label the peeled graph's nodes.
    ``block_rows`` holds one packed little-endian node bitset per extracted
    block (``np.packbits(..., bitorder="little")`` over the users, then the
    merchants); ``densities`` and ``edge_counts`` give each block's density
    and edge count, in extraction order. The first ``k_hat`` blocks are the
    ones the truncating point keeps.

    :attr:`all_blocks` and :attr:`blocks` build :class:`Block` objects on
    first read (fixed-k comparisons, the Fig.-1 score plot) and
    cache them; the cache is never pickled. The node-set, density and
    objective reads work on the arrays and never build a block.
    """

    user_labels: np.ndarray
    merchant_labels: np.ndarray
    block_rows: np.ndarray
    densities: np.ndarray
    edge_counts: np.ndarray
    k_hat: int

    def __post_init__(self) -> None:
        if not 0 <= self.k_hat <= self.n_blocks:
            raise DetectionError(
                f"k_hat must lie in [0, {self.n_blocks}] (the blocks extracted), got {self.k_hat}"
            )
        densities = self.densities.view()
        densities.flags.writeable = False
        object.__setattr__(self, "densities", densities)

    def __reduce__(self) -> tuple:
        # rebuilt through __init__ on load, so the Block cache never ships
        return type(self), (
            self.user_labels,
            self.merchant_labels,
            self.block_rows,
            self.densities,
            self.edge_counts,
            self.k_hat,
        )

    @property
    def n_blocks(self) -> int:
        """Blocks extracted before truncation."""
        return len(self.densities)

    @cached_property
    def all_blocks(self) -> tuple[Block, ...]:
        """Every extracted block, built from the packed rows on first read."""
        n_users = self.user_labels.size
        bits = np.unpackbits(
            self.block_rows, axis=1, count=n_users + self.merchant_labels.size, bitorder="little"
        ).view(bool)
        return tuple(
            Block(
                index=index,
                user_labels=np.sort(self.user_labels[row[:n_users]]),
                merchant_labels=np.sort(self.merchant_labels[row[n_users:]]),
                density=density,
                n_edges=n_edges,
            )
            for index, (row, density, n_edges) in enumerate(
                zip(bits, self.densities.tolist(), self.edge_counts.tolist())
            )
        )

    @property
    def blocks(self) -> tuple[Block, ...]:
        """The ``k̂`` blocks retained by the truncating point."""
        return self.all_blocks[: self.k_hat]

    def node_mask(self, k: int | None = None) -> np.ndarray:
        """Which nodes (users, then merchants) lie in the first ``k`` blocks (default ``k̂``)."""
        limit = self._limit(k)
        n_nodes = self.user_labels.size + self.merchant_labels.size
        if not limit:
            return np.zeros(n_nodes, dtype=bool)
        merged = np.bitwise_or.reduce(self.block_rows[:limit], axis=0)
        return np.unpackbits(merged, count=n_nodes, bitorder="little").view(bool)

    def detected_users(self, k: int | None = None) -> np.ndarray:
        """Union of user labels over the first ``k`` blocks (default ``k̂``)."""
        return self._union(k, self.user_labels, slice(None, self.user_labels.size))

    def detected_merchants(self, k: int | None = None) -> np.ndarray:
        """Union of merchant labels over the first ``k`` blocks (default ``k̂``)."""
        return self._union(k, self.merchant_labels, slice(self.user_labels.size, None))

    def _union(self, k: int | None, labels: np.ndarray, side: slice) -> np.ndarray:
        limit = self._limit(k)
        if not limit:
            return np.empty(0, dtype=np.int64)
        return np.unique(labels[self.node_mask(limit)[side]])

    def total_density(self, k: int | None = None) -> float:
        """The objective of Equ. 1: ``Σ_i φ(G(S_i))`` over kept blocks."""
        return float(sum(self.densities[: self._limit(k)].tolist()))

    def _limit(self, k: int | None) -> int:
        """Blocks a ``k``-limited read covers: ``k̂`` by default, clipped to the count."""
        if k is None:
            return self.k_hat
        if k < 0:
            raise DetectionError(f"k must be >= 0, got {k}")
        return min(k, self.n_blocks)


class Fdet:
    """The FDET detector (paper Algorithm 1 + Definition 3 truncation).

    >>> from repro.graph import BipartiteGraph
    >>> graph = BipartiteGraph.from_edges([(u, v) for u in range(5) for v in range(5)])
    >>> result = Fdet().detect(graph)
    >>> result.blocks[0].n_users
    5
    """

    def __init__(self, config: FdetConfig | None = None) -> None:
        self.config = config or FdetConfig()

    def detect(self, graph: BipartiteGraph) -> FdetResult:
        """Extract dense blocks from ``graph`` and truncate at ``k̂``.

        Under the ``fast`` engine the whole graph runs as one member of the
        batched native kernel (:mod:`repro.fdet.batched`), every node kept,
        so the block loop never leaves C. The Python block loop,
        :meth:`_detect_blockwise`, runs instead under the ``reference``
        engine, on a host with no kernel or whose summation probe failed,
        when the kernel cannot allocate the member, and for a metric
        subclass that overrides the weight methods; under ``fast`` each of
        its peels still runs in the kernel when one loads. Detections are
        identical either way, and identical to the rebuild-per-block
        formulation under both weight policies. Either way the result keeps
        each block as a packed node bitset; :class:`Block` objects are built
        only when :attr:`FdetResult.all_blocks` or :attr:`FdetResult.blocks`
        is read.

        ``graph`` is accepted as a **trusted view**: detection never
        re-validates and never writes into the graph's arrays, so graphs
        materialized worker-side from a :class:`~repro.graph.GraphStore`
        (whose columns are read-only views of a mapped store file) run
        unchanged — every derived quantity (priorities, masks, residual
        views) is allocated fresh. Enforced by the store-file parity tests.
        """
        if self.config.engine == PeelEngine.FAST and graph.n_edges:
            from . import batched  # deferred: batched builds on this module

            result = batched.detect_graph(graph, self.config)
            if result is not None:
                return result
        return self._detect_blockwise(graph)

    def _detect_blockwise(self, graph: BipartiteGraph) -> FdetResult:
        """Algorithm 1 in Python, one peel per block.

        The loop is *zero-rebuild*: instead of materialising a fresh graph
        (O(|E|) validation) after every block, it keeps one edge-alive mask
        over the input graph and peels a trusted residual view carrying the
        full node set.
        """
        config = self.config
        metric = config.metric
        frozen_degrees: np.ndarray | None = None
        if config.weight_policy == WeightPolicy.FROZEN:
            frozen_degrees = graph.merchant_degrees()

        n_edges = graph.n_edges
        edge_users = graph.edge_users
        edge_merchants = graph.edge_merchants
        alive = np.ones(n_edges, dtype=bool)
        n_alive = n_edges

        rows: list[np.ndarray] = []
        densities: list[float] = []
        edge_counts: list[int] = []
        for _ in range(config.max_blocks):
            if n_alive == 0:
                break
            residual = graph if n_alive == n_edges else _residual_view(graph, alive)
            edge_weights = metric.edge_weights(residual, frozen_degrees)
            peel = _peel(residual, edge_weights, config.engine)
            block_mask = alive & peel.user_mask[edge_users] & peel.merchant_mask[edge_merchants]
            block_edges = np.nonzero(block_mask)[0]
            if block_edges.size < config.min_block_edges:
                break
            rows.append(
                np.packbits(np.concatenate([peel.user_mask, peel.merchant_mask]), bitorder="little")
            )
            densities.append(peel.density)
            edge_counts.append(int(block_edges.size))
            alive[block_edges] = False
            n_alive -= int(block_edges.size)

        return FdetResult(
            user_labels=graph.user_labels,
            merchant_labels=graph.merchant_labels,
            block_rows=np.array(rows, dtype=np.uint8).reshape(len(rows), (graph.n_nodes + 7) // 8),
            densities=np.array(densities, dtype=np.float64),
            edge_counts=np.array(edge_counts, dtype=np.int64),
            k_hat=config.truncation.truncate(densities),
        )
