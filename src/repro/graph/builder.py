"""Incremental construction of :class:`~repro.graph.bipartite.BipartiteGraph`.

Real transaction logs arrive as ``(PIN, merchant)`` records with arbitrary
keys (strings, database ids). :class:`GraphBuilder` interns those keys into
dense indices in insertion order, optionally collapses duplicate purchases,
and produces an immutable graph plus the key↔index mappings needed to report
detections back in terms of the original identifiers.

:class:`GraphAccumulator` is the streaming sibling: it grows a graph by
appending whole edge *batches* (numpy arrays of integer labels, e.g. the
chunks yielded by :func:`repro.graph.io.iter_edge_batches`), interning
labels across batches, and snapshots the current graph through the trusted
constructor — the already-validated prefix is never re-scanned.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from ..errors import GraphError, InjectedFault
from ..faults import fault_point
from .bipartite import BipartiteGraph
from .window import LiveWindow, WindowConfig

__all__ = ["GraphBuilder", "BuiltGraph", "GraphAccumulator"]


class BuiltGraph:
    """Result of :meth:`GraphBuilder.build`.

    Attributes
    ----------
    graph:
        The immutable bipartite graph.
    user_keys, merchant_keys:
        ``index -> original key`` lists.
    user_index, merchant_index:
        ``original key -> index`` mappings.
    """

    __slots__ = ("graph", "user_keys", "merchant_keys", "user_index", "merchant_index")

    def __init__(
        self,
        graph: BipartiteGraph,
        user_keys: list[Hashable],
        merchant_keys: list[Hashable],
        user_index: Mapping[Hashable, int],
        merchant_index: Mapping[Hashable, int],
    ) -> None:
        self.graph = graph
        self.user_keys = user_keys
        self.merchant_keys = merchant_keys
        self.user_index = user_index
        self.merchant_index = merchant_index

    def users_from_indices(self, indices: Iterable[int]) -> list[Hashable]:
        """Translate user indices back to the original keys."""
        return [self.user_keys[i] for i in indices]

    def merchants_from_indices(self, indices: Iterable[int]) -> list[Hashable]:
        """Translate merchant indices back to the original keys."""
        return [self.merchant_keys[i] for i in indices]


class GraphBuilder:
    """Accumulate ``(user_key, merchant_key[, weight])`` purchase records.

    >>> builder = GraphBuilder()
    >>> builder.add_edge("pin-7", "shop-a")
    >>> builder.add_edge("pin-7", "shop-b", weight=2.0)
    >>> built = builder.build()
    >>> built.graph.n_edges
    2
    """

    def __init__(self, deduplicate: bool = False) -> None:
        self._deduplicate = deduplicate
        self._user_index: dict[Hashable, int] = {}
        self._merchant_index: dict[Hashable, int] = {}
        self._user_keys: list[Hashable] = []
        self._merchant_keys: list[Hashable] = []
        self._edge_users: list[int] = []
        self._edge_merchants: list[int] = []
        self._weights: list[float] = []
        self._any_weight = False
        self._seen: set[tuple[int, int]] | None = set() if deduplicate else None
        self._built = False

    def _intern(
        self, key: Hashable, index: dict[Hashable, int], keys: list[Hashable]
    ) -> int:
        node = index.get(key)
        if node is None:
            node = len(keys)
            index[key] = node
            keys.append(key)
        return node

    def add_user(self, key: Hashable) -> int:
        """Register a user key (possibly isolated); return its index."""
        self._check_not_built()
        return self._intern(key, self._user_index, self._user_keys)

    def add_merchant(self, key: Hashable) -> int:
        """Register a merchant key (possibly isolated); return its index."""
        self._check_not_built()
        return self._intern(key, self._merchant_index, self._merchant_keys)

    def add_edge(self, user_key: Hashable, merchant_key: Hashable, weight: float = 1.0) -> None:
        """Record one purchase of ``user_key`` at ``merchant_key``."""
        self._check_not_built()
        u = self.add_user(user_key)
        v = self.add_merchant(merchant_key)
        if self._seen is not None:
            if (u, v) in self._seen:
                return
            self._seen.add((u, v))
        self._edge_users.append(u)
        self._edge_merchants.append(v)
        self._weights.append(float(weight))
        if weight != 1.0:
            self._any_weight = True

    def add_edges(self, edges: Iterable[tuple[Hashable, Hashable]]) -> None:
        """Record many unweighted purchases."""
        for user_key, merchant_key in edges:
            self.add_edge(user_key, merchant_key)

    @property
    def n_users(self) -> int:
        """Users registered so far."""
        return len(self._user_keys)

    @property
    def n_merchants(self) -> int:
        """Merchants registered so far."""
        return len(self._merchant_keys)

    @property
    def n_edges(self) -> int:
        """Edges recorded so far."""
        return len(self._edge_users)

    def _check_not_built(self) -> None:
        if self._built:
            raise GraphError("GraphBuilder cannot be reused after build()")

    def build(self) -> BuiltGraph:
        """Freeze the accumulated records into a :class:`BuiltGraph`."""
        self._check_not_built()
        self._built = True
        weights = np.array(self._weights, dtype=np.float64) if self._any_weight else None
        graph = BipartiteGraph(
            n_users=len(self._user_keys),
            n_merchants=len(self._merchant_keys),
            edge_users=np.array(self._edge_users, dtype=np.int64),
            edge_merchants=np.array(self._edge_merchants, dtype=np.int64),
            edge_weights=weights,
        )
        return BuiltGraph(
            graph=graph,
            user_keys=self._user_keys,
            merchant_keys=self._merchant_keys,
            user_index=self._user_index,
            merchant_index=self._merchant_index,
        )


class GraphAccumulator:
    """Grow a bipartite graph by appending edge batches, out-of-core style.

    Unlike :class:`GraphBuilder` (per-record, arbitrary hashable keys,
    single ``build()``), the accumulator is array-oriented and re-usable:
    each :meth:`append` takes whole numpy batches of **integer labels**
    (global node ids, as stored in ``BipartiteGraph.user_labels``), interns
    only the labels it has not seen before, and :meth:`graph` snapshots the
    current state at any time through ``BipartiteGraph._from_trusted`` —
    the already-appended prefix is never copied back out of arrays nor
    re-validated.

    >>> acc = GraphAccumulator()
    >>> acc.append([10, 10], [7, 8])
    (0, 2)
    >>> acc.append([11], [7], weights=[2.0])
    (2, 3)
    >>> acc.graph().n_edges
    3

    ``append`` returns the ``(start, stop)`` edge-index range of the batch,
    which is what incremental detectors use to locate the delta.

    Windowed mode
    -------------
    Constructed with a :class:`~repro.graph.window.WindowConfig`, the
    accumulator additionally tracks per-edge *liveness*: every appended
    edge gets a permanent append id, :meth:`expire` tombstones edges that
    fall out of the rolling window (by batch count and/or timestamp
    horizon), :meth:`retract` tombstones explicitly deleted edges, and
    :meth:`compact` reclaims tombstoned rows once :attr:`dead_fraction`
    crosses the configured threshold — ids survive compaction, physical
    rows do not. :meth:`window` snapshots the state as a
    :class:`~repro.graph.window.LiveWindow`. In windowed mode ``append``
    returns the batch's *id* range, which equals the physical range only
    until the first compaction.
    """

    def __init__(self, window: WindowConfig | None = None) -> None:
        self._user_index: dict[int, int] = {}
        self._merchant_index: dict[int, int] = {}
        self._user_labels: list[int] = []
        self._merchant_labels: list[int] = []
        # consolidated prefix + pending (not yet concatenated) batches
        self._edge_users = np.empty(0, dtype=np.int64)
        self._edge_merchants = np.empty(0, dtype=np.int64)
        self._weights: np.ndarray | None = None
        self._pending_users: list[np.ndarray] = []
        self._pending_merchants: list[np.ndarray] = []
        self._pending_weights: list[np.ndarray | None] = []
        self._pending_edges = 0
        self._any_weighted = False
        # windowed-mode state (maintained only when _window is set)
        self._window = window
        self._alive = np.empty(0, dtype=bool)
        self._edge_ids = np.empty(0, dtype=np.int64)
        self._watermark = 0
        self._batches: list[list[float]] = []  # [start_id, stop_id, timestamp]

    @classmethod
    def from_graph(
        cls,
        graph: BipartiteGraph,
        window: WindowConfig | None = None,
        timestamp: float = 0.0,
    ) -> "GraphAccumulator":
        """Seed an accumulator with an existing graph's nodes and edges.

        Later batches append *after* the graph's edges (indices
        ``graph.n_edges`` onwards) and intern against its labels, so a
        detector state fitted on ``graph`` can keep growing it in place.
        With ``window`` set, the graph becomes batch 0 of the rolling
        window (all edges live, ids ``0..n_edges``) at ``timestamp``.
        """
        acc = cls(window=window)
        acc._user_labels = graph.user_labels.tolist()
        acc._merchant_labels = graph.merchant_labels.tolist()
        acc._user_index = {label: i for i, label in enumerate(acc._user_labels)}
        acc._merchant_index = {label: i for i, label in enumerate(acc._merchant_labels)}
        if len(acc._user_index) != len(acc._user_labels):
            raise GraphError("graph has duplicate user labels; cannot accumulate onto it")
        if len(acc._merchant_index) != len(acc._merchant_labels):
            raise GraphError("graph has duplicate merchant labels; cannot accumulate onto it")
        acc._edge_users = graph.edge_users
        acc._edge_merchants = graph.edge_merchants
        acc._weights = graph.edge_weights
        acc._any_weighted = graph.edge_weights is not None
        if window is not None:
            acc._alive = np.ones(graph.n_edges, dtype=bool)
            acc._edge_ids = np.arange(graph.n_edges, dtype=np.int64)
            acc._watermark = graph.n_edges
            acc._batches = [[0, graph.n_edges, float(timestamp)]]
        return acc

    @classmethod
    def restore_window(
        cls,
        graph: BipartiteGraph,
        window: WindowConfig,
        *,
        edge_ids: np.ndarray,
        watermark: int,
        batches: Sequence[Sequence[float]],
    ) -> "GraphAccumulator":
        """Rebuild a windowed accumulator from persisted state.

        ``graph`` must hold only live edges (states are compacted before
        saving), ``edge_ids`` their original append ids (strictly
        increasing), ``watermark`` the id-space bound, and ``batches`` the
        surviving ``[start_id, stop_id, timestamp]`` records.
        """
        if window is None:
            raise GraphError("restore_window requires a WindowConfig")
        acc = cls.from_graph(graph, window=window)
        ids = np.asarray(edge_ids, dtype=np.int64)
        if ids.shape != (graph.n_edges,):
            raise GraphError(
                f"edge_ids length {ids.size} does not match graph edges {graph.n_edges}"
            )
        if ids.size and not bool(np.all(ids[1:] > ids[:-1])):
            raise GraphError("window edge ids must be strictly increasing")
        watermark = int(watermark)
        floor = int(ids[-1]) + 1 if ids.size else 0
        if watermark < floor:
            raise GraphError(f"window watermark {watermark} below newest edge id {floor - 1}")
        records = [[int(b[0]), int(b[1]), float(b[2])] for b in batches]
        for prev, cur in zip(records, records[1:]):
            if cur[0] < prev[1] or cur[2] < prev[2]:
                raise GraphError("window batch records must be ordered and non-overlapping")
        if records and records[-1][1] > watermark:
            raise GraphError("window batch records extend past the watermark")
        acc._edge_ids = ids
        acc._alive = np.ones(ids.size, dtype=bool)
        acc._watermark = watermark
        acc._batches = records
        return acc

    @property
    def n_users(self) -> int:
        """Distinct user labels interned so far."""
        return len(self._user_labels)

    @property
    def n_merchants(self) -> int:
        """Distinct merchant labels interned so far."""
        return len(self._merchant_labels)

    @property
    def n_edges(self) -> int:
        """Edges appended so far."""
        return int(self._edge_users.size) + self._pending_edges

    @property
    def is_weighted(self) -> bool:
        """``True`` once any batch carried an explicit weight column."""
        return self._any_weighted

    def _intern_batch(
        self, raw: np.ndarray, index: dict[int, int], labels: list[int]
    ) -> np.ndarray:
        """Map raw labels to dense indices, interning unseen labels.

        Vectorised through the batch's unique values: the python dict is
        consulted once per *distinct* label, not once per edge.
        """
        unique, inverse = np.unique(raw, return_inverse=True)
        lut = np.empty(unique.size, dtype=np.int64)
        get = index.get
        for position, label in enumerate(unique.tolist()):
            node = get(label)
            if node is None:
                node = len(labels)
                index[label] = node
                labels.append(label)
            lut[position] = node
        return lut[inverse]

    def append(
        self,
        users: Sequence[int] | np.ndarray,
        merchants: Sequence[int] | np.ndarray,
        weights: Sequence[float] | np.ndarray | None = None,
        timestamp: float | None = None,
    ) -> tuple[int, int]:
        """Append one batch of ``(user_label, merchant_label[, weight])`` edges.

        Only the incoming batch is validated; the existing prefix is left
        untouched. Returns the half-open edge-index range ``(start, stop)``
        the batch now occupies — append *ids* in windowed mode, where the
        batch is also recorded at ``timestamp`` (defaults to the previous
        batch's timestamp + 1, i.e. ordinal time; explicit timestamps must
        be non-decreasing). ``timestamp`` is rejected outside windowed
        mode, where there is no clock to attach it to. A rejected batch
        raises :class:`GraphError` and changes nothing.
        """
        raw_users, raw_merchants, batch_weights, ts = self.check_append(
            users, merchants, weights, timestamp
        )
        start = self._watermark if self._window is not None else self.n_edges
        if batch_weights is not None:
            self._any_weighted = True
        if raw_users.size:
            self._pending_users.append(
                self._intern_batch(raw_users, self._user_index, self._user_labels)
            )
            self._pending_merchants.append(
                self._intern_batch(raw_merchants, self._merchant_index, self._merchant_labels)
            )
            # None placeholder for unweighted batches — unit weights are only
            # materialised at consolidation, and only if the stream ever
            # turns weighted
            self._pending_weights.append(batch_weights)
            self._pending_edges += int(raw_users.size)
        if self._window is None:
            return start, self.n_edges

        # windowed bookkeeping: eager consolidation keeps the liveness
        # columns aligned with the physical rows at all times
        self._consolidate()
        stop = start + int(raw_users.size)
        if raw_users.size:
            self._alive = np.concatenate([self._alive, np.ones(raw_users.size, dtype=bool)])
            self._edge_ids = np.concatenate(
                [self._edge_ids, np.arange(start, stop, dtype=np.int64)]
            )
        self._watermark = stop
        self._batches.append([start, stop, ts])
        return start, stop

    def check_append(
        self,
        users: Sequence[int] | np.ndarray,
        merchants: Sequence[int] | np.ndarray,
        weights: Sequence[float] | np.ndarray | None = None,
        timestamp: float | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, float | None]:
        """Check a batch as :meth:`append` does, changing nothing.

        Raises :class:`GraphError` where :meth:`append` would; returns the
        batch's label arrays, weights and timestamp. :meth:`append` runs
        every check before it changes anything (a batch queued before its
        timestamp failed would reach the edge columns at the next
        consolidation but never the liveness columns), and a caller that
        edits the window before it appends (a retraction first) checks the
        batch here, so a rejected batch leaves no edit either.
        """
        raw_users = np.asarray(users, dtype=np.int64)
        raw_merchants = np.asarray(merchants, dtype=np.int64)
        if raw_users.ndim != 1 or raw_merchants.ndim != 1:
            raise GraphError("edge batches must be one-dimensional label arrays")
        if raw_users.shape != raw_merchants.shape:
            raise GraphError(
                f"batch endpoint arrays differ in length: {raw_users.size} vs {raw_merchants.size}"
            )
        batch_weights: np.ndarray | None = None
        if weights is not None:
            batch_weights = np.asarray(weights, dtype=np.float64)
            if batch_weights.shape != raw_users.shape:
                raise GraphError("batch weights length does not match batch edge count")
        if self._window is None:
            if timestamp is not None:
                raise GraphError("append timestamps are only meaningful in windowed mode")
            return raw_users, raw_merchants, batch_weights, None
        newest = self._batches[-1][2] if self._batches else None
        if timestamp is None:
            return raw_users, raw_merchants, batch_weights, 0.0 if newest is None else newest + 1.0
        try:
            ts = float(timestamp)
        except (TypeError, ValueError):
            raise GraphError(f"batch timestamps must be numbers, got {timestamp!r}") from None
        if not math.isfinite(ts):
            # a NaN would pass the non-decreasing check and expire the window
            raise GraphError(f"batch timestamps must be finite, got {timestamp}")
        if newest is not None and ts < newest:
            raise GraphError(f"batch timestamps must be non-decreasing: {ts} after {newest}")
        return raw_users, raw_merchants, batch_weights, ts

    def _consolidate(self) -> None:
        if self._any_weighted and self._weights is None:
            # a weighted batch arrived after an unweighted prefix: give the
            # prefix explicit unit weights so the arrays stay parallel
            self._weights = np.ones(self._edge_users.size, dtype=np.float64)
        if not self._pending_edges:
            return
        self._edge_users = np.concatenate([self._edge_users, *self._pending_users])
        self._edge_merchants = np.concatenate(
            [self._edge_merchants, *self._pending_merchants]
        )
        if self._any_weighted:
            filled = [
                weights if weights is not None else np.ones(users.size, dtype=np.float64)
                for weights, users in zip(self._pending_weights, self._pending_users)
            ]
            self._weights = np.concatenate([self._weights, *filled])
        self._pending_users.clear()
        self._pending_merchants.clear()
        self._pending_weights.clear()
        self._pending_edges = 0

    def graph(self) -> BipartiteGraph:
        """Snapshot the accumulated state as an immutable graph.

        Uses the trusted constructor: interning guarantees every endpoint
        index is in range, so the O(|E|) validation scan is skipped — the
        cost of a snapshot is one concatenation of the batches appended
        since the previous snapshot.
        """
        self._consolidate()
        return BipartiteGraph._from_trusted(
            n_users=len(self._user_labels),
            n_merchants=len(self._merchant_labels),
            edge_users=self._edge_users,
            edge_merchants=self._edge_merchants,
            edge_weights=self._weights,
            user_labels=np.array(self._user_labels, dtype=np.int64),
            merchant_labels=np.array(self._merchant_labels, dtype=np.int64),
        )

    # ------------------------------------------------------------------
    # windowed mode: liveness, expiry, deletion, compaction
    # ------------------------------------------------------------------

    def _require_window(self) -> WindowConfig:
        if self._window is None:
            raise GraphError(
                "this operation needs a windowed accumulator "
                "(construct with a WindowConfig)"
            )
        return self._window

    @property
    def window_config(self) -> WindowConfig | None:
        """The retention policy, or ``None`` in append-only mode."""
        return self._window

    @property
    def watermark(self) -> int:
        """Total edges ever appended (the exclusive append-id bound)."""
        return self._watermark if self._window is not None else self.n_edges

    @property
    def n_live(self) -> int:
        """Edges currently inside the window (all of them when append-only)."""
        if self._window is None:
            return self.n_edges
        return int(np.count_nonzero(self._alive))

    @property
    def dead_fraction(self) -> float:
        """Fraction of physical rows that are tombstones awaiting compaction."""
        if self._window is None or not self._alive.size:
            return 0.0
        return 1.0 - int(np.count_nonzero(self._alive)) / int(self._alive.size)

    def _lookup_batch(self, raw: np.ndarray, index: dict[int, int], side: str) -> np.ndarray:
        """Map raw labels to dense indices without interning; unknown raises."""
        unique, inverse = np.unique(raw, return_inverse=True)
        lut = np.empty(unique.size, dtype=np.int64)
        get = index.get
        for position, label in enumerate(unique.tolist()):
            node = get(label)
            if node is None:
                raise GraphError(f"cannot retract edge of unknown {side} label {label}")
            lut[position] = node
        return lut[inverse]

    def retract(
        self,
        users: Sequence[int] | np.ndarray,
        merchants: Sequence[int] | np.ndarray,
    ) -> np.ndarray:
        """Tombstone one live edge per ``(user_label, merchant_label)`` pair.

        Deletion deltas name edges by endpoint labels, not append ids; each
        occurrence retracts the *oldest* still-live matching edge (so a
        delta listing a pair twice retracts the two oldest copies). Raises
        :class:`GraphError` if any pair has no live edge left. Returns the
        retracted append ids, ascending.
        """
        self._require_window()
        raw_users = np.asarray(users, dtype=np.int64)
        raw_merchants = np.asarray(merchants, dtype=np.int64)
        if raw_users.ndim != 1 or raw_merchants.ndim != 1:
            raise GraphError("retract batches must be one-dimensional label arrays")
        if raw_users.shape != raw_merchants.shape:
            raise GraphError(
                f"retract endpoint arrays differ in length: "
                f"{raw_users.size} vs {raw_merchants.size}"
            )
        if not raw_users.size:
            return np.empty(0, dtype=np.int64)
        u_idx = self._lookup_batch(raw_users, self._user_index, "user")
        m_idx = self._lookup_batch(raw_merchants, self._merchant_index, "merchant")

        span = np.int64(max(len(self._merchant_labels), 1))
        delta_keys = u_idx * span + m_idx
        rows = np.nonzero(self._alive)[0]
        live_keys = self._edge_users[rows] * span + self._edge_merchants[rows]
        # stable sort: within a key, live rows stay in id order (oldest first)
        order = np.argsort(live_keys, kind="stable")
        sorted_keys = live_keys[order]
        # rank each delta occurrence among its equal-key run, so the k-th
        # occurrence of a pair matches the k-th oldest live copy
        delta_order = np.argsort(delta_keys, kind="stable")
        delta_sorted = delta_keys[delta_order]
        run_starts = np.nonzero(np.r_[True, delta_sorted[1:] != delta_sorted[:-1]])[0]
        run_lengths = np.diff(np.r_[run_starts, delta_sorted.size])
        ranks = np.arange(delta_sorted.size) - np.repeat(run_starts, run_lengths)
        positions = np.searchsorted(sorted_keys, delta_sorted, side="left") + ranks
        in_bounds = positions < sorted_keys.size
        matched = in_bounds.copy()
        matched[in_bounds] &= sorted_keys[positions[in_bounds]] == delta_sorted[in_bounds]
        if not bool(matched.all()):
            offender = int(delta_order[np.nonzero(~matched)[0][0]])
            raise GraphError(
                "no live edge to retract for "
                f"({int(raw_users[offender])}, {int(raw_merchants[offender])})"
            )
        hit_rows = rows[order[positions]]
        self._alive[hit_rows] = False
        return np.sort(self._edge_ids[hit_rows])

    def expire(self, now: float | None = None) -> np.ndarray:
        """Tombstone every live edge that has fallen out of the window.

        The cutoff is the tighter of the two configured bounds: edges
        outside the last ``max_batches`` batches, and edges of batches
        older than ``horizon`` before the newest timestamp (or ``now``).
        Fully-expired batch records are pruned. Returns the newly expired
        append ids, ascending.
        """
        window = self._require_window()
        self._consolidate()
        cutoff = 0
        if window.max_batches is not None and len(self._batches) > window.max_batches:
            cutoff = max(cutoff, int(self._batches[-window.max_batches][0]))
        if window.horizon is not None and self._batches:
            latest = float(self._batches[-1][2]) if now is None else float(now)
            oldest_live = latest - float(window.horizon)
            stale_stop = self._watermark  # if every batch is stale
            for start, _stop, ts in self._batches:
                if ts >= oldest_live:
                    stale_stop = int(start)
                    break
            cutoff = max(cutoff, stale_stop)
        if not cutoff:
            return np.empty(0, dtype=np.int64)
        newly = self._alive & (self._edge_ids < cutoff)
        expired = self._edge_ids[newly]
        self._alive[newly] = False
        # drop fully-expired records; an empty batch at the cutoff is the
        # newest tick of the clock and must survive
        self._batches = [
            record for record in self._batches if record[0] >= cutoff or record[1] > cutoff
        ]
        return expired

    def compact(self) -> int:
        """Drop tombstoned physical rows; append ids are preserved.

        Returns the number of rows reclaimed. The ``window.compact``
        fault point fires *before* any mutation, so an injected failure
        leaves the accumulator consistent (just uncompacted).
        """
        self._require_window()
        self._consolidate()
        dead = int(self._alive.size) - int(np.count_nonzero(self._alive))
        fault_point("window.compact", watermark=self._watermark, dead=dead)
        if not dead:
            return 0
        keep = self._alive
        self._edge_users = self._edge_users[keep]
        self._edge_merchants = self._edge_merchants[keep]
        if self._weights is not None:
            self._weights = self._weights[keep]
        self._edge_ids = self._edge_ids[keep]
        self._alive = np.ones(self._edge_ids.size, dtype=bool)
        return dead

    def maybe_compact(self) -> bool:
        """Compact once :attr:`dead_fraction` exceeds the threshold.

        Compaction is a pure memory optimisation — every read honors the
        liveness mask either way — so an injected fault or allocation
        failure just defers it to the next threshold crossing.
        """
        window = self._window
        if window is None or self.dead_fraction <= window.compact_threshold:
            return False
        try:
            self.compact()
        except (InjectedFault, MemoryError):
            return False
        return True

    def window(self) -> LiveWindow:
        """Snapshot the windowed state (graph + liveness overlay).

        The snapshot is immutable: later retract/expire calls mutate the
        accumulator's own mask, never a previously returned window, and
        compaction swaps in fresh arrays rather than editing shared ones.
        """
        self._require_window()
        return LiveWindow(
            graph=self.graph(),
            alive=self._alive.copy(),
            edge_ids=self._edge_ids.copy(),
            watermark=self._watermark,
        )

    def live_graph(self) -> BipartiteGraph:
        """The live edges only, keeping the full node set and labels."""
        return self.window().live_graph()

    def window_state(self) -> dict:
        """Persistable form of the windowed state (DetectionState v3).

        Filters to live rows with pure array ops (no fault points, no
        mutation), so saving never interacts with compaction chaos plans.
        """
        window = self._require_window()
        self._consolidate()
        keep = self._alive
        weights = self._weights[keep] if self._weights is not None else None
        graph = BipartiteGraph._from_trusted(
            n_users=len(self._user_labels),
            n_merchants=len(self._merchant_labels),
            edge_users=self._edge_users[keep],
            edge_merchants=self._edge_merchants[keep],
            edge_weights=weights,
            user_labels=np.array(self._user_labels, dtype=np.int64),
            merchant_labels=np.array(self._merchant_labels, dtype=np.int64),
        )
        return {
            "config": window.as_dict(),
            "watermark": int(self._watermark),
            "batches": [[int(s), int(e), float(t)] for s, e, t in self._batches],
            "graph": graph,
            "edge_ids": self._edge_ids[keep].copy(),
        }
