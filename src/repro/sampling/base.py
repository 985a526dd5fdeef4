"""Sampler interface shared by all bipartite-graph sampling methods.

The paper (§IV-A) decomposes the large detection problem into ``N`` sampled
subgraphs drawn at ratio ``S``. Since the zero-copy fan-out refactor every
sampler is split into two halves:

* :meth:`Sampler.plan` — the cheap, RNG-consuming parent-side step. It
  looks only at the graph's *sizes* and returns a compact
  :class:`SamplePlan` (an edge-index array, a node pick, or a stripe row —
  typically ~1% the bytes of the subgraph it describes).
* :func:`plan_edge_ids` — the deterministic worker-side step that turns
  ``(parent graph, plan)`` into the parent edge ids the member keeps,
  whatever the plan's kind. The batched kernel peels members given as
  these lists; :func:`materialize_plan` builds the sampled
  :class:`BipartiteGraph` from them (``graph.edge_subgraph`` plus the
  plan's weight scale), either in the parent or, on the process backend,
  against a zero-copy :class:`~repro.graph.GraphStore` view of a mapped
  store file.

``sampler.sample(graph, rng)`` is literally
``materialize_plan(graph, sampler.plan(graph, rng))``, and ``plan_many``
consumes the RNG in the same sequential order the historical eager
``sample_many`` did, so plan-based pipelines are bitwise identical to the
eager ones (enforced by ``tests/ensemble/test_plan_parity.py``).

Materialized subgraphs keep ``user_labels`` / ``merchant_labels`` that
reference the parent graph, and their nodes are the parent nodes the
member's edges touch, in ascending order, so ensemble votes can be tallied
per parent node.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..errors import GraphValidationError, SamplingError
from ..graph import BipartiteGraph
from ..graph.window import EdgeWindow, StripeIndex

__all__ = [
    "SamplePlan",
    "Sampler",
    "check_ratio",
    "compact_indices",
    "materialize_plan",
    "plan_edge_ids",
    "resolve_rng",
]


def check_ratio(ratio: float) -> float:
    """Validate a sample ratio ``S ∈ (0, 1]``."""
    ratio = float(ratio)
    if not 0.0 < ratio <= 1.0:
        raise SamplingError(f"sample ratio must be in (0, 1], got {ratio}")
    return ratio


def compact_indices(indices: np.ndarray, bound: int) -> np.ndarray:
    """Narrow an index array to int32 when every value fits.

    Plans ship across process boundaries; halving the index width halves
    the dominant payload of edge-index plans. Materialization converts
    back to int64, so the resulting subgraphs are bitwise unchanged.
    """
    if bound <= np.iinfo(np.int32).max:
        return indices.astype(np.int32)
    return indices


def resolve_rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    """Accept a Generator, an integer seed, or ``None`` (fresh entropy).

    ``bool`` is rejected explicitly: it *is* an ``int`` subclass, so
    ``resolve_rng(True)`` would silently mean seed 1 — almost certainly a
    misplaced flag argument rather than an intentional seed.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (bool, np.bool_)):
        raise SamplingError(
            f"seed must be an int, Generator or None, got bool {rng!r} "
            "(a misplaced flag argument?)"
        )
    return np.random.default_rng(rng)


@dataclass(frozen=True)
class SamplePlan:
    """Compact, picklable description of one sampled subgraph.

    A plan records *what the RNG chose*, not the subgraph itself, so the
    parent can fan ``N`` of them out to workers without shipping any graph
    bytes. Exactly one of three kinds:

    * ``"edges"`` — keep ``edge_indices`` of the parent (RES, and the
      empty-sample degenerate case of the node samplers),
    * ``"nodes"`` — keep the edges whose two ends were picked, where
      ``users`` / ``merchants`` name the picked nodes of a side (``None``
      picks the whole side; ONS samples one side, TNS both),
    * ``"stripes"`` — keep the edges of the stripes flagged in
      ``stripe_row`` (:class:`~repro.sampling.StableEdgeSampler`):
      ``stripe_row[k]`` flags stripe ``stripe_start + k``, and a stripe
      outside the row is not sampled. A cold plan's row covers every
      stripe from 0; a window's covers only the stripes of its live
      edges, so its size does not grow with the append history.

    ``weight_scale`` optionally rescales the surviving edges' weights
    (Theorem 1's ``1/S`` Horvitz–Thompson correction).
    """

    kind: str
    edge_indices: np.ndarray | None = None
    users: np.ndarray | None = None
    merchants: np.ndarray | None = None
    weight_scale: float | None = None
    stripe_row: np.ndarray | None = None
    stripe: int = 1
    stripe_start: int = 0

    KINDS = ("edges", "nodes", "stripes")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise SamplingError(f"plan kind must be one of {self.KINDS}, got {self.kind!r}")

    @property
    def nbytes(self) -> int:
        """Payload bytes this plan ships to a worker (diagnostics)."""
        total = 0
        for array in (self.edge_indices, self.users, self.merchants, self.stripe_row):
            if array is not None:
                total += array.nbytes
        return total


def plan_edge_ids(
    plan: SamplePlan,
    graph: BipartiteGraph,
    window: EdgeWindow | None = None,
    index: StripeIndex | None = None,
) -> np.ndarray:
    """The parent edge ids of ``plan``'s member, as int64, whatever the plan's kind.

    * ``"edges"`` — the plan's own ids, in plan (chosen) order;
    * ``"nodes"`` — the edges whose two ends were picked, ascending;
    * ``"stripes"`` — without a window, stripe ``s`` is the edge positions
      ``s·stripe .. (s+1)·stripe - 1`` of ``graph``; with one, it is the
      live rows whose append id falls in that range, read from the
      window's :class:`~repro.graph.StripeIndex` (``index``, when a caller
      shares one across plans of the same stripe width). Ascending.

    Order matters: the member's edge order defines its adjacency and its
    peel's tie-breaking. An edge or node id outside ``graph`` raises
    :class:`~repro.errors.GraphValidationError`; stripe ids come from the
    graph's own rows. With a ``window``, ``graph`` is the full *stored*
    graph of a rolling window (tombstoned rows included), and only stripe
    plans are accepted: the positional kinds have no id-stable meaning
    over a mutating log.
    """
    if plan.kind == "stripes":
        if window is not None:
            if index is None:
                index = StripeIndex(window, plan.stripe)
            return index.member_rows(plan.stripe_row, plan.stripe_start)
        row = plan.stripe_row
        mask = row if plan.stripe == 1 else np.repeat(row, plan.stripe)
        first = plan.stripe_start * plan.stripe
        return np.flatnonzero(mask[: max(0, graph.n_edges - first)]) + first
    if window is not None:
        raise SamplingError(f"windowed materialization requires stripe plans, got {plan.kind!r}")
    if plan.kind == "edges":
        ids = np.ascontiguousarray(plan.edge_indices, dtype=np.int64)
        _check_range(ids, graph.n_edges, "an edge")
        return ids
    keep = np.ones(graph.n_edges, dtype=bool)
    for picked, n_nodes, ends, side in (
        (plan.users, graph.n_users, graph.edge_users, "a user"),
        (plan.merchants, graph.n_merchants, graph.edge_merchants, "a merchant"),
    ):
        if picked is not None:
            _check_range(picked, n_nodes, side)
            chosen = np.zeros(n_nodes, dtype=bool)
            chosen[picked] = True
            keep &= chosen[ends]
    return np.flatnonzero(keep)


def _check_range(ids: np.ndarray, bound: int, what: str) -> None:
    if ids.size and (int(ids.min()) < 0 or int(ids.max()) >= bound):
        raise GraphValidationError(f"sample plan names {what} index outside the graph")


def materialize_plan(
    graph: BipartiteGraph, plan: SamplePlan, window: EdgeWindow | None = None
) -> BipartiteGraph:
    """Deterministically expand ``plan`` against its parent ``graph``.

    This is the worker-side half of sampling: no RNG, pure array work, and
    byte-for-byte the subgraph the eager ``sampler.sample`` call would have
    produced — ``graph.edge_subgraph`` of :func:`plan_edge_ids`, with the
    plan's weight scale applied. ``graph`` may be a read-only view of a
    mapped store file. With a ``window``, stripe membership is looked up by
    each row's original append id, so expiring or compacting *other* edges
    never moves a surviving edge between samples, and dead rows are left
    out.
    """
    subgraph = graph.edge_subgraph(plan_edge_ids(plan, graph, window))
    if plan.weight_scale is not None:
        subgraph = subgraph.with_weights(
            subgraph.weights_or_ones() * plan.weight_scale, trusted=True
        )
    return subgraph


class Sampler(ABC):
    """A structural sampling method for bipartite graphs."""

    #: short identifier used in experiment tables ("res", "ons_user", ...)
    name: str = "sampler"

    def __init__(self, ratio: float) -> None:
        self.ratio = check_ratio(ratio)

    @abstractmethod
    def plan(
        self, graph: BipartiteGraph, rng: np.random.Generator | int | None = None
    ) -> SamplePlan:
        """Draw the compact plan of one sampled subgraph (parent-side)."""

    def sample(
        self, graph: BipartiteGraph, rng: np.random.Generator | int | None = None
    ) -> BipartiteGraph:
        """Draw one sampled subgraph of ``graph`` (plan + materialize)."""
        return materialize_plan(graph, self.plan(graph, rng))

    def plan_many(
        self,
        graph: BipartiteGraph,
        n_samples: int,
        rng: np.random.Generator | int | None = None,
    ) -> list[SamplePlan]:
        """Plans for ``n_samples`` independent subgraphs (the paper's ``N``).

        Draws from one resolved generator sequentially — the same RNG
        consumption order as materializing each sample eagerly in turn.
        """
        if n_samples < 1:
            raise SamplingError(f"n_samples must be >= 1, got {n_samples}")
        generator = resolve_rng(rng)
        return [self.plan(graph, generator) for _ in range(n_samples)]

    def sample_many(
        self,
        graph: BipartiteGraph,
        n_samples: int,
        rng: np.random.Generator | int | None = None,
    ) -> list[BipartiteGraph]:
        """Draw ``n_samples`` independent subgraphs, materialized eagerly."""
        return [
            materialize_plan(graph, plan)
            for plan in self.plan_many(graph, n_samples, rng)
        ]

    def repetition_rate(self, n_samples: int) -> float:
        """``R = S × N`` — expected number of times an element is resampled."""
        return self.ratio * n_samples

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(ratio={self.ratio})"
