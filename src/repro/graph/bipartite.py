"""Immutable bipartite graph backed by numpy edge arrays.

This is the core substrate of the reproduction: the *"who buy-from where"*
graph of Definition 1 in the paper, ``G = (U ∪ V, E)`` with user (PIN) nodes
``U`` and merchant nodes ``V``.

Design notes
------------
* Users and merchants live in **separate index spaces**: users are
  ``0..n_users-1`` and merchants ``0..n_merchants-1``.
* The edge set is stored as two parallel ``int64`` arrays plus an optional
  ``float64`` weight array; adjacency (CSR over edge indices) is built lazily
  and cached, so cheap graphs stay cheap.
* Every graph carries ``user_labels`` / ``merchant_labels`` — global node
  identifiers that survive subgraph extraction. Samplers produce subgraphs
  whose *local* indices are compacted but whose labels still refer to the
  original graph, which is what lets the ensemble vote per original node.
* Instances are immutable; all "mutating" operations return new graphs.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from ..errors import GraphValidationError

__all__ = ["BipartiteGraph"]


def _as_int_array(values: Sequence[int] | np.ndarray, name: str) -> np.ndarray:
    array = np.asarray(values, dtype=np.int64)
    if array.ndim != 1:
        raise GraphValidationError(f"{name} must be one-dimensional, got shape {array.shape}")
    return array


class BipartiteGraph:
    """An immutable bipartite multigraph ``G = (U ∪ V, E)``.

    Parameters
    ----------
    n_users, n_merchants:
        Sizes of the two node partitions.
    edge_users, edge_merchants:
        Parallel arrays of endpoint indices, one entry per edge.
    edge_weights:
        Optional per-edge weights; ``None`` means every edge weighs ``1.0``.
        Weights exist to support Theorem 1's ``1/p`` re-weighting of sampled
        edges and weighted density scores.
    user_labels, merchant_labels:
        Global identifiers of the nodes; default to ``arange``. Subgraphs
        inherit the parent's labels so detections can always be expressed in
        terms of the original graph's nodes.
    """

    __slots__ = (
        "n_users",
        "n_merchants",
        "edge_users",
        "edge_merchants",
        "edge_weights",
        "user_labels",
        "merchant_labels",
        "_user_adj",
        "_merchant_adj",
        "_user_degrees",
        "_merchant_degrees",
        "_ones",
    )

    def __init__(
        self,
        n_users: int,
        n_merchants: int,
        edge_users: Sequence[int] | np.ndarray,
        edge_merchants: Sequence[int] | np.ndarray,
        edge_weights: Sequence[float] | np.ndarray | None = None,
        user_labels: Sequence[int] | np.ndarray | None = None,
        merchant_labels: Sequence[int] | np.ndarray | None = None,
    ) -> None:
        self.n_users = int(n_users)
        self.n_merchants = int(n_merchants)
        self.edge_users = _as_int_array(edge_users, "edge_users")
        self.edge_merchants = _as_int_array(edge_merchants, "edge_merchants")
        if edge_weights is None:
            self.edge_weights = None
        else:
            self.edge_weights = np.asarray(edge_weights, dtype=np.float64)
        if user_labels is None:
            self.user_labels = np.arange(self.n_users, dtype=np.int64)
        else:
            self.user_labels = _as_int_array(user_labels, "user_labels")
        if merchant_labels is None:
            self.merchant_labels = np.arange(self.n_merchants, dtype=np.int64)
        else:
            self.merchant_labels = _as_int_array(merchant_labels, "merchant_labels")
        self._user_adj: tuple[np.ndarray, np.ndarray] | None = None
        self._merchant_adj: tuple[np.ndarray, np.ndarray] | None = None
        self._user_degrees: np.ndarray | None = None
        self._merchant_degrees: np.ndarray | None = None
        self._ones: np.ndarray | None = None
        self._validate()

    @classmethod
    def _from_trusted(
        cls,
        n_users: int,
        n_merchants: int,
        edge_users: np.ndarray,
        edge_merchants: np.ndarray,
        edge_weights: np.ndarray | None,
        user_labels: np.ndarray,
        merchant_labels: np.ndarray,
    ) -> "BipartiteGraph":
        """Construct from arrays produced by our own subgraph/remove ops.

        Skips ``_validate`` (the O(|E|) bounds scan) and the label re-checks:
        the caller guarantees the arrays are already consistent — correct
        dtypes, matching lengths, in-range endpoints. This is the hot
        constructor behind :meth:`edge_subgraph` and :meth:`remove_edges`,
        which FDET's outer loop and the samplers call once per block/sample.
        """
        graph = cls.__new__(cls)
        graph.n_users = n_users
        graph.n_merchants = n_merchants
        graph.edge_users = edge_users
        graph.edge_merchants = edge_merchants
        graph.edge_weights = edge_weights
        graph.user_labels = user_labels
        graph.merchant_labels = merchant_labels
        graph._user_adj = None
        graph._merchant_adj = None
        graph._user_degrees = None
        graph._merchant_degrees = None
        graph._ones = None
        return graph

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------

    @property
    def n_edges(self) -> int:
        """Number of edges ``|E|``."""
        return int(self.edge_users.shape[0])

    @property
    def n_nodes(self) -> int:
        """Total number of nodes ``|U| + |V|``."""
        return self.n_users + self.n_merchants

    @property
    def is_empty(self) -> bool:
        """``True`` when the graph has no edges."""
        return self.n_edges == 0

    @property
    def is_weighted(self) -> bool:
        """``True`` when an explicit edge-weight array is attached."""
        return self.edge_weights is not None

    def weights_or_ones(self) -> np.ndarray:
        """float64 edge weights, or a cached all-ones array when unweighted.

        The unweighted fallback is materialised once per instance (FDET hits
        this once per block per sample), and so is the float64 upcast of
        compact float32 storage weights — all weight *arithmetic* happens in
        float64 regardless of the storage dtype, which is what keeps compact
        and wide stores bitwise-identical (float32 storage is only ever used
        when the float64 round-trip is exact). Callers must treat the
        returned array as read-only.
        """
        if self.edge_weights is not None:
            if self.edge_weights.dtype == np.float64:
                return self.edge_weights
            if self._ones is None:  # unused for weighted graphs: cache the upcast
                self._ones = self.edge_weights.astype(np.float64)
            return self._ones
        if self._ones is None:
            self._ones = np.ones(self.n_edges, dtype=np.float64)
        return self._ones

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BipartiteGraph(users={self.n_users}, merchants={self.n_merchants}, "
            f"edges={self.n_edges}, weighted={self.is_weighted})"
        )

    def __eq__(self, other: object) -> bool:
        """Structural equality: same sizes, edges, weights and labels."""
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        if (self.n_users, self.n_merchants, self.n_edges) != (
            other.n_users,
            other.n_merchants,
            other.n_edges,
        ):
            return False
        same_edges = bool(
            np.array_equal(self.edge_users, other.edge_users)
            and np.array_equal(self.edge_merchants, other.edge_merchants)
        )
        if not same_edges:
            return False
        if (self.edge_weights is None) != (other.edge_weights is None):
            return False
        if self.edge_weights is not None and not np.allclose(
            self.edge_weights, other.edge_weights
        ):
            return False
        return bool(
            np.array_equal(self.user_labels, other.user_labels)
            and np.array_equal(self.merchant_labels, other.merchant_labels)
        )

    __hash__ = None  # type: ignore[assignment] - mutable ndarray members

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def _validate(self) -> None:
        if self.n_users < 0 or self.n_merchants < 0:
            raise GraphValidationError("partition sizes must be non-negative")
        if self.edge_users.shape != self.edge_merchants.shape:
            raise GraphValidationError(
                "edge endpoint arrays differ in length: "
                f"{self.edge_users.shape[0]} vs {self.edge_merchants.shape[0]}"
            )
        if self.edge_weights is not None and self.edge_weights.shape != self.edge_users.shape:
            raise GraphValidationError("edge_weights length does not match edge count")
        if self.user_labels.shape[0] != self.n_users:
            raise GraphValidationError("user_labels length does not match n_users")
        if self.merchant_labels.shape[0] != self.n_merchants:
            raise GraphValidationError("merchant_labels length does not match n_merchants")
        if self.n_edges:
            if int(self.edge_users.min()) < 0 or int(self.edge_users.max()) >= self.n_users:
                raise GraphValidationError("edge_users contains out-of-range user index")
            if (
                int(self.edge_merchants.min()) < 0
                or int(self.edge_merchants.max()) >= self.n_merchants
            ):
                raise GraphValidationError("edge_merchants contains out-of-range merchant index")

    # ------------------------------------------------------------------
    # degrees & adjacency
    # ------------------------------------------------------------------

    def user_degrees(self) -> np.ndarray:
        """Unweighted degree of every user node (cached)."""
        if self._user_degrees is None:
            self._user_degrees = np.bincount(
                self.edge_users, minlength=self.n_users
            ).astype(np.int64)
        return self._user_degrees

    def merchant_degrees(self) -> np.ndarray:
        """Unweighted degree of every merchant node (cached)."""
        if self._merchant_degrees is None:
            self._merchant_degrees = np.bincount(
                self.edge_merchants, minlength=self.n_merchants
            ).astype(np.int64)
        return self._merchant_degrees

    def weighted_user_degrees(self) -> np.ndarray:
        """Sum of incident edge weights per user node.

        Unweighted graphs take the integer ``bincount`` path (no ones-array
        multiply) and only convert the counts to ``float64`` at the end.
        """
        counts = np.bincount(
            self.edge_users, weights=self.edge_weights, minlength=self.n_users
        )
        return counts if self.is_weighted else counts.astype(np.float64)

    def weighted_merchant_degrees(self) -> np.ndarray:
        """Sum of incident edge weights per merchant node."""
        counts = np.bincount(
            self.edge_merchants, weights=self.edge_weights, minlength=self.n_merchants
        )
        return counts if self.is_weighted else counts.astype(np.float64)

    def _build_adjacency(self, endpoints: np.ndarray, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
        order = np.argsort(endpoints, kind="stable")
        counts = np.bincount(endpoints, minlength=n_nodes)
        indptr = np.zeros(n_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return indptr, order

    def user_adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR adjacency over **edge indices** keyed by user.

        Returns ``(indptr, edge_index)`` such that the edges incident to user
        ``u`` are ``edge_index[indptr[u]:indptr[u+1]]``.
        """
        if self._user_adj is None:
            self._user_adj = self._build_adjacency(self.edge_users, self.n_users)
        return self._user_adj

    def merchant_adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR adjacency over **edge indices** keyed by merchant."""
        if self._merchant_adj is None:
            self._merchant_adj = self._build_adjacency(self.edge_merchants, self.n_merchants)
        return self._merchant_adj

    def user_neighbors(self, user: int) -> np.ndarray:
        """Merchant indices adjacent to ``user`` (with multiplicity)."""
        indptr, edge_index = self.user_adjacency()
        return self.edge_merchants[edge_index[indptr[user] : indptr[user + 1]]]

    def merchant_neighbors(self, merchant: int) -> np.ndarray:
        """User indices adjacent to ``merchant`` (with multiplicity)."""
        indptr, edge_index = self.merchant_adjacency()
        return self.edge_users[edge_index[indptr[merchant] : indptr[merchant + 1]]]

    def iter_edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over ``(user, merchant)`` endpoint pairs."""
        for u, v in zip(self.edge_users.tolist(), self.edge_merchants.tolist()):
            yield u, v

    # ------------------------------------------------------------------
    # subgraph extraction
    # ------------------------------------------------------------------

    def edge_subgraph(self, edge_indices: Sequence[int] | np.ndarray) -> "BipartiteGraph":
        """Subgraph made of exactly the given edges, with compacted nodes.

        Only the nodes touched by the selected edges are kept (this is the
        "no extra edges are added" semantics of edge sampling in the paper).
        Labels map back to this graph's labels.
        """
        edge_indices = _as_int_array(edge_indices, "edge_indices")
        if edge_indices.size and (
            int(edge_indices.min()) < 0 or int(edge_indices.max()) >= self.n_edges
        ):
            raise GraphValidationError("edge index out of range in edge_subgraph")
        sub_users = self.edge_users[edge_indices]
        sub_merchants = self.edge_merchants[edge_indices]
        kept_users, new_users = np.unique(sub_users, return_inverse=True)
        kept_merchants, new_merchants = np.unique(sub_merchants, return_inverse=True)
        weights = None
        if self.edge_weights is not None:
            # gathers upcast compact float32 storage: all arithmetic is float64
            weights = self.edge_weights[edge_indices].astype(np.float64, copy=False)
        return BipartiteGraph._from_trusted(
            n_users=int(kept_users.size),
            n_merchants=int(kept_merchants.size),
            edge_users=new_users.astype(np.int64, copy=False),
            edge_merchants=new_merchants.astype(np.int64, copy=False),
            edge_weights=weights,
            user_labels=self.user_labels[kept_users],
            merchant_labels=self.merchant_labels[kept_merchants],
        )

    def remove_edges(self, edge_indices: Sequence[int] | np.ndarray) -> "BipartiteGraph":
        """Graph with the given edges removed; node set (and labels) kept.

        Used by FDET's outer loop, which removes the edges of each detected
        block but must keep node indexing stable across iterations.
        """
        edge_indices = _as_int_array(edge_indices, "edge_indices")
        mask = np.ones(self.n_edges, dtype=bool)
        mask[edge_indices] = False
        weights = None
        if self.edge_weights is not None:
            weights = self.edge_weights[mask].astype(np.float64, copy=False)
        return BipartiteGraph._from_trusted(
            n_users=self.n_users,
            n_merchants=self.n_merchants,
            edge_users=self.edge_users[mask],
            edge_merchants=self.edge_merchants[mask],
            edge_weights=weights,
            user_labels=self.user_labels,
            merchant_labels=self.merchant_labels,
        )

    def with_weights(
        self,
        weights: Sequence[float] | np.ndarray | None,
        trusted: bool = False,
    ) -> "BipartiteGraph":
        """Copy of this graph with a different edge-weight array.

        ``trusted=True`` skips re-validation when the caller guarantees
        ``weights`` is already a float64 array of length ``n_edges`` (the
        sample-plan materializer derives it from this graph's own weights,
        so re-scanning every edge would be pure overhead).
        """
        if trusted:
            return BipartiteGraph._from_trusted(
                n_users=self.n_users,
                n_merchants=self.n_merchants,
                edge_users=self.edge_users,
                edge_merchants=self.edge_merchants,
                edge_weights=weights,
                user_labels=self.user_labels,
                merchant_labels=self.merchant_labels,
            )
        return BipartiteGraph(
            n_users=self.n_users,
            n_merchants=self.n_merchants,
            edge_users=self.edge_users,
            edge_merchants=self.edge_merchants,
            edge_weights=weights,
            user_labels=self.user_labels,
            merchant_labels=self.merchant_labels,
        )

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[int, int]],
        n_users: int | None = None,
        n_merchants: int | None = None,
        deduplicate: bool = False,
    ) -> "BipartiteGraph":
        """Build a graph from ``(user, merchant)`` pairs.

        Partition sizes default to ``max index + 1``. ``deduplicate=True``
        collapses parallel edges (keeping one copy each).
        """
        pairs = list(edges)
        if pairs:
            edge_users = np.array([u for u, _ in pairs], dtype=np.int64)
            edge_merchants = np.array([v for _, v in pairs], dtype=np.int64)
        else:
            edge_users = np.empty(0, dtype=np.int64)
            edge_merchants = np.empty(0, dtype=np.int64)
        if deduplicate and edge_users.size:
            stacked = np.stack([edge_users, edge_merchants], axis=1)
            stacked = np.unique(stacked, axis=0)
            edge_users, edge_merchants = stacked[:, 0], stacked[:, 1]
        if n_users is None:
            n_users = int(edge_users.max()) + 1 if edge_users.size else 0
        if n_merchants is None:
            n_merchants = int(edge_merchants.max()) + 1 if edge_merchants.size else 0
        return cls(n_users, n_merchants, edge_users, edge_merchants)

    @classmethod
    def empty(cls, n_users: int = 0, n_merchants: int = 0) -> "BipartiteGraph":
        """An edgeless graph with the given partition sizes."""
        return cls(n_users, n_merchants, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
