"""Rolling-window liveness model for streaming graphs.

The append-only :class:`~repro.graph.builder.GraphAccumulator` treats the
transaction log as immortal: every edge ever appended votes forever. Real
fraud moves in time — attacks ramp up, go dormant, and sometimes delete
their own traces — and stale honest history dilutes the vote scores of
everything that follows. The windowed mode tracks which edges are *live*:

* :class:`WindowConfig` — the retention policy: keep the last
  ``max_batches`` appended batches, or every batch within a ``horizon``
  of the newest timestamp (or both; an edge must satisfy every configured
  bound to stay live). A window with neither bound expires nothing: its
  edges leave only by retraction, which is how an incremental detector
  runs without a window.
* :class:`LiveWindow` — an immutable snapshot of the windowed state: the
  full *stored* graph (which may still contain tombstoned rows awaiting
  compaction), the liveness mask over its physical rows, and the
  **original append ids** of those rows. Stripe-hash sampling keys stripe
  membership by append id, so expiring or compacting other edges can
  never move a surviving edge between samples.
* :class:`EdgeWindow` — the two per-row columns (`alive`, `edge_ids`) in
  a picklable form, shipped to workers next to a
  :class:`~repro.graph.store.StoreLayout` so the zero-copy fan-out stays
  zero-copy.
* :class:`StripeIndex` — the live rows grouped by stripe of append ids,
  from which a stripe-sampled member's edge ids are read without a pass
  over the whole window.

The watermark is the total number of edges ever appended — the exclusive
upper bound of the id space. It only grows; compaction reclaims physical
rows but never reuses ids. Compaction runs once more than
:data:`COMPACT_DEAD_FRACTION` (half) of the stored rows are dead, so the
rows stored stay near at most twice the live edges; the fraction is a
constant, not a setting of the window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..errors import GraphError
from .bipartite import BipartiteGraph

__all__ = ["COMPACT_DEAD_FRACTION", "WindowConfig", "EdgeWindow", "LiveWindow", "StripeIndex"]

#: the share of stored rows that must be dead before a window compacts
COMPACT_DEAD_FRACTION = 0.5


@dataclass(frozen=True)
class WindowConfig:
    """Retention policy of a rolling edge window.

    When both ``max_batches`` and ``horizon`` are set, the *tighter* cutoff
    wins (an edge must be within the last ``max_batches`` batches **and**
    within ``horizon`` of the newest timestamp to stay live). With neither,
    the window has no bound and nothing expires.
    """

    max_batches: int | None = None
    horizon: float | None = None

    def __post_init__(self) -> None:
        if self.max_batches is not None and int(self.max_batches) < 1:
            raise GraphError(f"max_batches must be >= 1, got {self.max_batches}")
        if self.horizon is not None and not float(self.horizon) > 0.0:
            raise GraphError(f"horizon must be > 0, got {self.horizon}")

    @property
    def bounded(self) -> bool:
        """Whether any edge can expire (``max_batches`` or ``horizon`` is set)."""
        return self.max_batches is not None or self.horizon is not None

    def as_dict(self) -> dict:
        """JSON-able form (DetectionState v3 ``window_json``)."""
        return {
            "max_batches": None if self.max_batches is None else int(self.max_batches),
            "horizon": None if self.horizon is None else float(self.horizon),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "WindowConfig":
        """Inverse of :meth:`as_dict` (validates via the constructor).

        States saved before config format 2 also hold ``compact_threshold``.
        It set only when storage was rewritten, never a vote, so it is read
        and ignored.
        """
        if not isinstance(payload, dict):
            raise GraphError(f"window config must be a mapping, got {type(payload).__name__}")
        kwargs = {key: value for key, value in payload.items() if key != "compact_threshold"}
        unknown = sorted(set(kwargs) - {"max_batches", "horizon"})
        if unknown:
            raise GraphError(f"unknown window config keys: {', '.join(unknown)}")
        return cls(**kwargs)


class EdgeWindow(NamedTuple):
    """Per-physical-row liveness columns, in picklable/shippable form.

    ``alive[i]`` says whether stored edge row ``i`` is inside the window;
    ``edge_ids[i]`` is its original append id (strictly increasing along
    the rows — appends are sequential and compaction preserves order).
    ``rows`` is ``np.flatnonzero(alive)`` when the producer keeps it (a
    :class:`~repro.graph.GraphAccumulator` does), else ``None``.
    """

    alive: np.ndarray
    edge_ids: np.ndarray
    rows: np.ndarray | None = None

    def live_rows(self) -> np.ndarray:
        """The live physical rows, ascending."""
        return np.flatnonzero(self.alive) if self.rows is None else self.rows


class StripeIndex:
    """The live rows of a window, grouped by stripe of ``stripe`` append ids.

    Append ids increase along the physical rows, so the live rows of one
    stripe are one run of the ascending live-row list: stripe ``start + k``
    holds ``rows[offsets[k]:offsets[k + 1]]``, for the stripes
    ``start..stop-1`` that span the live edges. Given the live rows, the
    index costs two binary searches per stripe, and a member's edge ids
    cost what the member holds (:meth:`member_rows`).
    """

    __slots__ = ("rows", "start", "stop", "offsets")

    def __init__(self, window: EdgeWindow, stripe: int) -> None:
        rows = window.live_rows()
        self.rows = rows
        if rows.size:
            self.start = int(window.edge_ids[rows[0]]) // stripe
            self.stop = int(window.edge_ids[rows[-1]]) // stripe + 1
        else:
            self.start = self.stop = 0
        bounds = np.arange(self.start, self.stop + 1, dtype=np.int64) * stripe
        # first physical row of each stripe, then its place among the live rows
        self.offsets = np.searchsorted(rows, np.searchsorted(window.edge_ids, bounds))

    def member_rows(self, stripe_row: np.ndarray, first: int = 0) -> np.ndarray:
        """The live rows of the stripes a member holds, ascending.

        ``stripe_row[k]`` says whether stripe ``first + k`` belongs to the
        member; a stripe outside the row does not.
        """
        lo = max(self.start, first)
        hi = min(self.stop, first + stripe_row.size)
        if hi <= lo:
            return self.rows[:0]
        picked = np.flatnonzero(stripe_row[lo - first : hi - first]) + (lo - self.start)
        starts = self.offsets[picked]
        lengths = self.offsets[picked + 1] - starts
        ends = np.cumsum(lengths)
        total = int(ends[-1]) if ends.size else 0
        # one arange over the picked runs, shifted run by run onto the live list
        return self.rows[np.arange(total) + np.repeat(starts - ends + lengths, lengths)]


@dataclass(frozen=True)
class LiveWindow:
    """Immutable snapshot of a windowed accumulator.

    ``graph`` is the full stored graph *including* tombstoned rows — the
    shape the zero-copy fan-out ships — while ``alive`` / ``edge_ids``
    carry the liveness overlay. ``watermark`` is the exclusive upper
    bound of the append-id space (total edges ever appended).
    """

    graph: BipartiteGraph
    alive: np.ndarray
    edge_ids: np.ndarray
    watermark: int
    #: the live rows, ascending (``np.flatnonzero(alive)``, computed when not given)
    rows: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.alive.shape != (self.graph.n_edges,) or self.alive.dtype != np.bool_:
            raise GraphError("window alive mask must be bool of length n_edges")
        if self.edge_ids.shape != (self.graph.n_edges,) or self.edge_ids.dtype != np.int64:
            raise GraphError("window edge_ids must be int64 of length n_edges")
        if self.graph.n_edges and int(self.edge_ids[-1]) >= int(self.watermark):
            raise GraphError("window watermark below the newest edge id")
        if self.rows is None:
            object.__setattr__(self, "rows", np.flatnonzero(self.alive))

    @property
    def n_live(self) -> int:
        """Number of live edges in the window."""
        return int(self.rows.size)

    def edge_window(self) -> EdgeWindow:
        """The picklable liveness columns, with the live rows."""
        return EdgeWindow(alive=self.alive, edge_ids=self.edge_ids, rows=self.rows)

    def live_graph(self) -> BipartiteGraph:
        """The live edges only, keeping the full node set and labels.

        Node indexing matches ``graph`` exactly, so detections computed on
        the live graph speak the same label space as windowed sampling
        over the stored graph — this is what makes a cold fit on
        ``live_graph()`` comparable bit-for-bit with windowed updates.
        """
        if self.rows.size == self.graph.n_edges:
            return self.graph
        return self.graph.remove_edges(np.nonzero(~self.alive)[0])
