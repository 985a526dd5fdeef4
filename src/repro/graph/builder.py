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
constructor — the already-validated prefix is never re-scanned. With a
:class:`~repro.graph.window.WindowConfig` it also tombstones the edges that
expire or are retracted, and rewrites its rows without them once more than
half of the stored rows are dead
(:data:`~repro.graph.window.COMPACT_DEAD_FRACTION`).
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from ..errors import GraphError, InjectedFault
from ..faults import fault_point
from .bipartite import BipartiteGraph
from .window import COMPACT_DEAD_FRACTION, LiveWindow, WindowConfig

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


class _Growable:
    """An array that grows at its end by amortized doubling.

    ``buffer[lo:hi]`` is the filled part. Growth copies it into a new
    buffer, and :meth:`extend` writes only past ``hi``, so a view of the
    filled part handed out earlier never changes under later appends;
    :meth:`drop` forgets leading entries without touching them.
    """

    __slots__ = ("buffer", "lo", "hi")

    def __init__(self, array: np.ndarray) -> None:
        self.buffer, self.lo, self.hi = array, 0, int(array.shape[0])

    def __len__(self) -> int:
        return self.hi - self.lo

    def view(self) -> np.ndarray:
        return self.buffer[self.lo : self.hi]

    def extend(self, values: np.ndarray) -> None:
        count = int(values.shape[0])
        if not count:
            return
        if self.hi + count > self.buffer.shape[0]:
            size = len(self)
            grown = np.empty(max(2 * (size + count), 16), np.result_type(self.buffer, values))
            grown[:size] = self.view()
            self.buffer, self.lo, self.hi = grown, 0, size
        self.buffer[self.hi : self.hi + count] = values
        self.hi += count

    def drop(self, count: int) -> None:
        self.lo += count


class _Labels:
    """Dense node indices for one side's integer labels, in first-seen order.

    Lookups binary-search a sorted copy of the labels. A batch's unseen
    labels get the next indices in ascending label order.
    """

    __slots__ = ("side", "_by_node", "_sorted", "_nodes")

    def __init__(self, side: str, labels: np.ndarray | None = None) -> None:
        labels = np.empty(0, np.int64) if labels is None else np.asarray(labels, np.int64)
        order = np.argsort(labels, kind="stable")
        ordered = labels[order]
        if bool(np.any(ordered[1:] == ordered[:-1])):
            raise GraphError(f"graph has duplicate {side} labels; cannot accumulate onto it")
        self.side = side
        self._by_node = _Growable(labels)
        self._sorted = ordered
        self._nodes = order

    def __len__(self) -> int:
        return len(self._by_node)

    def labels(self) -> np.ndarray:
        """``node index -> label``; a view later interning leaves unchanged."""
        return self._by_node.view()

    def _find(self, unique: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Where each of the ascending ``unique`` labels sorts, and whether it is known."""
        positions = np.searchsorted(self._sorted, unique)
        if not self._sorted.size:
            return positions, np.zeros(unique.size, dtype=bool)
        return positions, self._sorted[np.minimum(positions, self._sorted.size - 1)] == unique

    def intern(self, raw: np.ndarray) -> np.ndarray:
        """The node index of every label of ``raw``, interning unseen ones."""
        # binary searches run fastest on sorted keys
        unique, inverse = np.unique(raw, return_inverse=True)
        positions, found = self._find(unique)
        if not found.all():
            fresh = unique[~found]
            added = np.arange(len(self), len(self) + fresh.size, dtype=np.int64)
            self._by_node.extend(fresh)
            self._sorted = np.insert(self._sorted, positions[~found], fresh)
            self._nodes = np.insert(self._nodes, positions[~found], added)
            positions = np.searchsorted(self._sorted, unique)
        return self._nodes[positions][inverse]

    def lookup(self, raw: np.ndarray) -> np.ndarray:
        """The node index of every label of ``raw``; an unknown label raises."""
        unique, inverse = np.unique(raw, return_inverse=True)
        positions, found = self._find(unique)
        if not found.all():
            label = int(unique[~found][0])
            raise GraphError(f"cannot retract edge of unknown {self.side} label {label}")
        return self._nodes[positions][inverse]


def _batch_timestamp(timestamp) -> float:
    """A batch timestamp as a float; anything but a finite number raises."""
    try:
        ts = float(timestamp)
    except (TypeError, ValueError):
        raise GraphError(f"batch timestamps must be numbers, got {timestamp!r}") from None
    if not math.isfinite(ts):
        # a NaN would pass the non-decreasing check and expire the window
        raise GraphError(f"batch timestamps must be finite, got {timestamp}")
    return ts


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

    Every column grows by amortized doubling and is only ever written past
    its filled part, so a snapshot is a set of views, and an append costs
    its own batch.

    Windowed mode
    -------------
    Constructed with a :class:`~repro.graph.window.WindowConfig`, the
    accumulator additionally tracks per-edge *liveness*: every appended
    edge gets a permanent append id, :meth:`expire` tombstones edges that
    fall out of the rolling window (by batch count and/or timestamp
    horizon), :meth:`retract` tombstones explicitly deleted edges, and
    :meth:`compact` reclaims tombstoned rows once :attr:`dead_fraction`
    passes :data:`~repro.graph.window.COMPACT_DEAD_FRACTION` (one half) —
    ids survive compaction, physical rows do not. It keeps the ascending list of live rows up to date with
    each of these, so :meth:`window` snapshots the state as a
    :class:`~repro.graph.window.LiveWindow` whose live rows index the
    stripes (:class:`~repro.graph.window.StripeIndex`) without a pass over
    the window. In windowed mode ``append`` returns the batch's *id*
    range, which equals the physical range only until the first
    compaction. A window with no bound keeps only its newest batch record,
    the clock the next batch's timestamp is checked against.
    """

    def __init__(self, window: WindowConfig | None = None) -> None:
        self._user_labels = _Labels("user")
        self._merchant_labels = _Labels("merchant")
        self._edge_users = _Growable(np.empty(0, dtype=np.int64))
        self._edge_merchants = _Growable(np.empty(0, dtype=np.int64))
        #: ``None`` until a batch carries weights (the prefix then gets unit weights)
        self._weights: _Growable | None = None
        # windowed-mode state (maintained only when _window is set)
        self._window = window
        self._alive = _Growable(np.empty(0, dtype=bool))
        self._edge_ids = _Growable(np.empty(0, dtype=np.int64))
        #: the live physical rows, ascending
        self._live = _Growable(np.empty(0, dtype=np.int64))
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
        window (all edges live, ids ``0..n_edges``) at ``timestamp``, which
        must be a finite number.
        """
        acc = cls(window=window)
        acc._user_labels = _Labels("user", graph.user_labels)
        acc._merchant_labels = _Labels("merchant", graph.merchant_labels)
        acc._edge_users = _Growable(graph.edge_users)
        acc._edge_merchants = _Growable(graph.edge_merchants)
        if graph.edge_weights is not None:
            acc._weights = _Growable(graph.edge_weights)
        if window is not None:
            acc._alive = _Growable(np.ones(graph.n_edges, dtype=bool))
            acc._edge_ids = _Growable(np.arange(graph.n_edges, dtype=np.int64))
            acc._live = _Growable(np.arange(graph.n_edges, dtype=np.int64))
            acc._watermark = graph.n_edges
            acc._batches = [[0, graph.n_edges, _batch_timestamp(timestamp)]]
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
        surviving ``[start_id, stop_id, timestamp]`` records, whose
        timestamps must be finite numbers.
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
        records = [[int(b[0]), int(b[1]), _batch_timestamp(b[2])] for b in batches]
        for prev, cur in zip(records, records[1:]):
            if cur[0] < prev[1] or cur[2] < prev[2]:
                raise GraphError("window batch records must be ordered and non-overlapping")
        if records and records[-1][1] > watermark:
            raise GraphError("window batch records extend past the watermark")
        acc._edge_ids = _Growable(ids)
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
        """Edge rows stored (all edges appended, until a compaction)."""
        return len(self._edge_users)

    @property
    def is_weighted(self) -> bool:
        """``True`` once any batch carried an explicit weight column."""
        return self._weights is not None

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
        rows = self.n_edges
        count = int(raw_users.size)
        start = self._watermark if self._window is not None else rows
        if batch_weights is not None and self._weights is None:
            self._weights = _Growable(np.ones(rows, dtype=np.float64))
        if count:
            self._edge_users.extend(self._user_labels.intern(raw_users))
            self._edge_merchants.extend(self._merchant_labels.intern(raw_merchants))
            if self._weights is not None:
                self._weights.extend(
                    batch_weights if batch_weights is not None else np.ones(count)
                )
        if self._window is None:
            return start, self.n_edges

        stop = start + count
        if count:
            self._alive.extend(np.ones(count, dtype=bool))
            self._edge_ids.extend(np.arange(start, stop, dtype=np.int64))
            self._live.extend(np.arange(rows, rows + count, dtype=np.int64))
        self._watermark = stop
        if not self._window.bounded:
            self._batches.clear()
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
        every check before it changes anything (a batch written to the edge
        columns before its timestamp failed would never reach the liveness
        columns), and a caller that edits the window before it appends (a
        retraction first) checks the batch here, so a rejected batch leaves
        no edit either.
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
        ts = _batch_timestamp(timestamp)
        if newest is not None and ts < newest:
            raise GraphError(f"batch timestamps must be non-decreasing: {ts} after {newest}")
        return raw_users, raw_merchants, batch_weights, ts

    def graph(self) -> BipartiteGraph:
        """Snapshot the accumulated state as an immutable graph.

        Uses the trusted constructor: interning guarantees every endpoint
        index is in range, so the O(|E|) validation scan is skipped. The
        snapshot's columns and labels are views of the accumulator's, which
        later appends never write into.
        """
        return BipartiteGraph._from_trusted(
            n_users=len(self._user_labels),
            n_merchants=len(self._merchant_labels),
            edge_users=self._edge_users.view(),
            edge_merchants=self._edge_merchants.view(),
            edge_weights=None if self._weights is None else self._weights.view(),
            user_labels=self._user_labels.labels(),
            merchant_labels=self._merchant_labels.labels(),
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
        return len(self._live)

    @property
    def dead_fraction(self) -> float:
        """Fraction of physical rows that are tombstones awaiting compaction."""
        if self._window is None or not self.n_edges:
            return 0.0
        return 1.0 - len(self._live) / self.n_edges

    def retract(
        self,
        users: Sequence[int] | np.ndarray,
        merchants: Sequence[int] | np.ndarray,
    ) -> np.ndarray:
        """Tombstone one live edge per ``(user_label, merchant_label)`` pair.

        Deletion deltas name edges by endpoint labels, not append ids; each
        occurrence retracts the *oldest* still-live matching edge (so a
        delta listing a pair twice retracts the two oldest copies). Raises
        :class:`GraphError` if any pair has no live edge left, and then
        changes nothing. Returns the retracted append ids, ascending.
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
        u_idx = self._user_labels.lookup(raw_users)
        m_idx = self._merchant_labels.lookup(raw_merchants)

        # only the live rows of a listed user can match; they stay ascending,
        # i.e. oldest first within every pair
        live = self._live.view()
        edge_users = self._edge_users.view()
        listed = np.zeros(len(self._user_labels), dtype=bool)
        listed[u_idx] = True
        candidates = live[listed[edge_users[live]]]
        span = np.int64(max(len(self._merchant_labels), 1))
        delta_keys = u_idx * span + m_idx
        cand_keys = edge_users[candidates] * span + self._edge_merchants.view()[candidates]
        # stable sort: within a key, candidate rows stay in id order (oldest first)
        order = np.argsort(cand_keys, kind="stable")
        sorted_keys = cand_keys[order]
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
        hit_rows = candidates[order[positions]]
        self._alive.view()[hit_rows] = False
        # a fresh live list: a snapshot keeps the one it holds
        keep = np.ones(live.size, dtype=bool)
        keep[np.searchsorted(live, hit_rows)] = False
        self._live = _Growable(live[keep])
        return np.sort(self._edge_ids.view()[hit_rows])

    def expire(self, now: float | None = None) -> np.ndarray:
        """Tombstone every live edge that has fallen out of the window.

        The cutoff is the tighter of the two configured bounds: edges
        outside the last ``max_batches`` batches, and edges of batches
        older than ``horizon`` before the newest timestamp (or ``now``).
        Fully-expired batch records are pruned. Returns the newly expired
        append ids, ascending.
        """
        window = self._require_window()
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
        # ids increase along the rows, so the expiring live rows lead the list
        edge_ids = self._edge_ids.view()
        live = self._live.view()
        gone = live[: int(np.searchsorted(live, np.searchsorted(edge_ids, cutoff)))]
        self._alive.view()[gone] = False
        self._live.drop(gone.size)
        # drop fully-expired records; an empty batch at the cutoff is the
        # newest tick of the clock and must survive
        self._batches = [
            record for record in self._batches if record[0] >= cutoff or record[1] > cutoff
        ]
        return edge_ids[gone]

    def compact(self) -> int:
        """Drop tombstoned physical rows; append ids are preserved.

        Returns the number of rows reclaimed. The ``window.compact``
        fault point fires *before* any mutation, so an injected failure
        leaves the accumulator consistent (just uncompacted).
        """
        self._require_window()
        live = self._live.view()
        dead = self.n_edges - int(live.size)
        fault_point("window.compact", watermark=self._watermark, dead=dead)
        if not dead:
            return 0
        # fresh columns: snapshots keep viewing the old ones
        self._edge_users = _Growable(self._edge_users.view()[live])
        self._edge_merchants = _Growable(self._edge_merchants.view()[live])
        if self._weights is not None:
            self._weights = _Growable(self._weights.view()[live])
        self._edge_ids = _Growable(self._edge_ids.view()[live])
        self._alive = _Growable(np.ones(live.size, dtype=bool))
        self._live = _Growable(np.arange(live.size, dtype=np.int64))
        return dead

    def maybe_compact(self) -> bool:
        """Compact once :attr:`dead_fraction` exceeds ``COMPACT_DEAD_FRACTION``.

        Compaction is a pure memory optimisation — every read honors the
        liveness mask either way — so an injected fault or allocation
        failure just defers it to the next call past the fraction.
        """
        if self._window is None or self.dead_fraction <= COMPACT_DEAD_FRACTION:
            return False
        try:
            self.compact()
        except (InjectedFault, MemoryError):
            return False
        return True

    def window(self) -> LiveWindow:
        """Snapshot the windowed state (graph + liveness overlay).

        The snapshot is immutable: later retract/expire calls mutate the
        accumulator's own mask, never a previously returned window (which
        holds a copy), and every other column it views is only appended
        to past the snapshot, or swapped for a fresh one.
        """
        self._require_window()
        return LiveWindow(
            graph=self.graph(),
            alive=self._alive.view().copy(),
            edge_ids=self._edge_ids.view(),
            watermark=self._watermark,
            rows=self._live.view(),
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
        live = self._live.view()
        graph = BipartiteGraph._from_trusted(
            n_users=len(self._user_labels),
            n_merchants=len(self._merchant_labels),
            edge_users=self._edge_users.view()[live],
            edge_merchants=self._edge_merchants.view()[live],
            edge_weights=None if self._weights is None else self._weights.view()[live],
            user_labels=self._user_labels.labels(),
            merchant_labels=self._merchant_labels.labels(),
        )
        return {
            "config": window.as_dict(),
            "watermark": int(self._watermark),
            "batches": [[int(s), int(e), float(t)] for s, e, t in self._batches],
            "graph": graph,
            "edge_ids": self._edge_ids.view()[live],
        }
