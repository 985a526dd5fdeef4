"""Serialisation of bipartite graphs.

Two formats:

* **edge-list TSV** — ``user<TAB>merchant[<TAB>weight]`` rows with a ``#``
  header carrying partition sizes; interoperable with awk/cut pipelines.
* **npz** — a compact numpy archive preserving labels and weights exactly.

Both formats also expose a **chunked** read path for streaming ingestion:
:func:`iter_edge_batches` / :func:`iter_npz_batches` yield fixed-size
:class:`EdgeBatch` chunks of raw global labels without ever holding the
whole file's parsed rows, and :func:`load_edge_list_chunked` feeds them
through a :class:`~repro.graph.builder.GraphAccumulator` to reconstruct a
graph bitwise-identical to :func:`load_edge_list`'s.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from ..errors import GraphError
from .bipartite import BipartiteGraph
from .builder import GraphAccumulator

__all__ = [
    "EdgeBatch",
    "save_edge_list",
    "load_edge_list",
    "load_edge_list_chunked",
    "iter_edge_batches",
    "iter_npz_batches",
    "save_npz",
    "load_npz",
]

_HEADER_PREFIX = "# bipartite"

#: default number of edges per chunk for the streaming readers
DEFAULT_BATCH_SIZE = 65_536


class EdgeBatch(NamedTuple):
    """One chunk of edges in **raw label** space (not interned indices)."""

    users: np.ndarray
    merchants: np.ndarray
    weights: np.ndarray | None

    @property
    def n_edges(self) -> int:
        """Edges in this batch."""
        return int(self.users.size)


def _not_utf8(path: Path, line_no: int, line: bytes, exc: UnicodeDecodeError) -> GraphError:
    """The error for a line that does not decode, naming its file, line and byte."""
    return GraphError(
        f"{path}:{line_no}: byte {line[exc.start]:#04x} is not UTF-8 "
        "(corrupted or mis-encoded file?)"
    )


def _parse_header(line: bytes, path: Path) -> dict[str, str]:
    """The ``key=value`` fields of a file's first line (raw bytes, decoded here)."""
    try:
        header = line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, 1, line, exc) from None
    if not header.startswith(_HEADER_PREFIX):
        raise GraphError(f"{path}: missing '{_HEADER_PREFIX}' header")
    fields: dict[str, str] = {}
    for item in header.strip().split()[2:]:
        key, sep, value = item.partition("=")
        if not sep or not key:
            # e.g. the writer crashed mid-header and left "mer" or "=5"
            raise GraphError(
                f"{path}: malformed header token {item!r} "
                "(truncated or corrupted file?)"
            )
        fields[key] = value
    return fields


def _weighted_flag(fields: dict[str, str], path: Path) -> bool:
    flag = fields.get("weighted", "0")
    try:
        return bool(int(flag))
    except ValueError:
        raise GraphError(f"{path}: malformed weighted= flag {flag!r} in header") from None


def _declared_edges(fields: dict[str, str], path: Path) -> int | None:
    declared = fields.get("edges")
    if declared is None:
        return None
    try:
        return int(declared)
    except ValueError:
        raise GraphError(f"{path}: malformed edges= count {declared!r} in header") from None


def _check_declared_edges(declared: int | None, parsed: int, path: Path) -> None:
    """Cross-check the header's ``edges=`` count against the parsed body.

    A truncated or concatenated file must not load silently as a smaller
    (still structurally valid) graph.
    """
    if declared is not None and parsed != declared:
        raise GraphError(
            f"{path}: header declares edges={declared} but the body has {parsed} "
            "edge rows (truncated or corrupted file?)"
        )


def save_edge_list(graph: BipartiteGraph, path: str | os.PathLike[str]) -> None:
    """Write the graph as TSV with a size header.

    Node *labels* (original ids), not local indices, are written so that a
    saved subgraph remains interpretable against its parent graph.
    """
    path = Path(path)
    weights = graph.edge_weights
    with path.open("w", encoding="utf-8") as fh:
        fh.write(
            f"{_HEADER_PREFIX} users={graph.n_users} merchants={graph.n_merchants} "
            f"edges={graph.n_edges} weighted={int(graph.is_weighted)}\n"
        )
        user_labels = graph.user_labels
        merchant_labels = graph.merchant_labels
        for i in range(graph.n_edges):
            u = user_labels[graph.edge_users[i]]
            v = merchant_labels[graph.edge_merchants[i]]
            if weights is None:
                fh.write(f"{u}\t{v}\n")
            else:
                fh.write(f"{u}\t{v}\t{float(weights[i])!r}\n")


def _iter_rows(
    lines: Iterable[bytes], path: Path, weighted: bool, start_line: int = 2
) -> Iterator[tuple[int, int, float]]:
    """Yield ``(user, merchant, weight)`` per data row of raw ``lines``;
    shared by every edge-file reader, which all open their file in binary."""
    for line_no, raw in enumerate(lines, start=start_line):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, line_no, raw, exc) from None
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) < 2:
            raise GraphError(f"{path}:{line_no}: expected at least two columns")
        try:
            weight = 1.0
            if weighted:
                if len(parts) < 3:
                    raise GraphError(
                        f"{path}:{line_no}: weighted file missing weight column"
                    )
                weight = float(parts[2])
            yield int(parts[0]), int(parts[1]), weight
        except ValueError as exc:
            # a row cut mid-write ("123\t45" → "123\t4") parses as the wrong
            # edge silently only if every token survives; a half token must
            # surface as a parse error, not a bare ValueError
            raise GraphError(
                f"{path}:{line_no}: unparsable edge row {line!r} "
                f"({exc}); truncated or corrupted file?"
            ) from exc


def load_edge_list(path: str | os.PathLike[str]) -> BipartiteGraph:
    """Read a TSV written by :func:`save_edge_list`.

    Labels are re-interned into dense local indices; the original labels are
    preserved in ``user_labels`` / ``merchant_labels``. The header's
    ``edges=`` count is cross-checked against the rows actually parsed.
    """
    path = Path(path)
    edge_users: list[int] = []
    edge_merchants: list[int] = []
    weights: list[float] = []
    with path.open("rb") as fh:
        fields = _parse_header(fh.readline(), path)
        weighted = _weighted_flag(fields, path)
        for user, merchant, weight in _iter_rows(fh, path, weighted):
            edge_users.append(user)
            edge_merchants.append(merchant)
            if weighted:
                weights.append(weight)
    _check_declared_edges(_declared_edges(fields, path), len(edge_users), path)

    user_labels, local_users = np.unique(
        np.array(edge_users, dtype=np.int64), return_inverse=True
    )
    merchant_labels, local_merchants = np.unique(
        np.array(edge_merchants, dtype=np.int64), return_inverse=True
    )
    return BipartiteGraph(
        n_users=user_labels.size,
        n_merchants=merchant_labels.size,
        edge_users=local_users,
        edge_merchants=local_merchants,
        edge_weights=np.array(weights, dtype=np.float64) if weighted else None,
        user_labels=user_labels,
        merchant_labels=merchant_labels,
    )


def iter_edge_batches(
    path: str | os.PathLike[str],
    batch_size: int = DEFAULT_BATCH_SIZE,
    strict: bool = True,
) -> Iterator[EdgeBatch]:
    """Stream an edge-list TSV as fixed-size :class:`EdgeBatch` chunks.

    Memory stays constant in the file size: only ``batch_size`` parsed rows
    are alive at any moment. Labels are yielded raw (not interned) — feed
    the batches to a :class:`~repro.graph.builder.GraphAccumulator`, which
    interns across chunks.

    Parameters
    ----------
    path:
        Edge-list TSV with the ``# bipartite`` header.
    batch_size:
        Maximum edges per yielded batch.
    strict:
        When ``True`` (default), the header's ``edges=`` count is verified
        against the total rows streamed once the file is exhausted — the
        same truncation guard as :func:`load_edge_list`. Pass ``False``
        for append-in-progress files (e.g. the ``watch`` CLI tailing a
        growing log) whose header count is expected to lag.
    """
    if batch_size < 1:
        raise GraphError(f"batch_size must be >= 1, got {batch_size}")
    path = Path(path)
    with path.open("rb") as fh:
        fields = _parse_header(fh.readline(), path)
        weighted = _weighted_flag(fields, path)
        total = 0
        for batch in _edge_batches(_iter_rows(fh, path, weighted), weighted, batch_size):
            total += batch.n_edges
            yield batch
    if strict:
        _check_declared_edges(_declared_edges(fields, path), total, path)


def _edge_batches(
    rows: Iterable[tuple[int, int, float]],
    weighted: bool,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> Iterator[EdgeBatch]:
    """Chunk parsed ``(user, merchant, weight)`` rows into batches of at most
    ``batch_size`` edges, so only one chunk of rows is held as Python objects."""
    users: list[int] = []
    merchants: list[int] = []
    weights: list[float] = []

    def flush() -> EdgeBatch:
        batch = EdgeBatch(
            users=np.array(users, dtype=np.int64),
            merchants=np.array(merchants, dtype=np.int64),
            weights=np.array(weights, dtype=np.float64) if weighted else None,
        )
        users.clear()
        merchants.clear()
        weights.clear()
        return batch

    for user, merchant, weight in rows:
        users.append(user)
        merchants.append(merchant)
        if weighted:
            weights.append(weight)
        if len(users) >= batch_size:
            yield flush()
    if users:
        yield flush()


def _canonical_labels(graph: BipartiteGraph) -> BipartiteGraph:
    """Re-index so labels are sorted ascending (the ``np.unique`` convention).

    The accumulator interns labels in first-appearance order; the whole-file
    loader sorts them. Re-ranking the label arrays makes the chunked path's
    output bitwise-identical to :func:`load_edge_list`'s.
    """
    user_order = np.argsort(graph.user_labels, kind="stable")
    merchant_order = np.argsort(graph.merchant_labels, kind="stable")
    user_rank = np.empty_like(user_order)
    merchant_rank = np.empty_like(merchant_order)
    user_rank[user_order] = np.arange(user_order.size, dtype=np.int64)
    merchant_rank[merchant_order] = np.arange(merchant_order.size, dtype=np.int64)
    return BipartiteGraph._from_trusted(
        n_users=graph.n_users,
        n_merchants=graph.n_merchants,
        edge_users=user_rank[graph.edge_users],
        edge_merchants=merchant_rank[graph.edge_merchants],
        edge_weights=graph.edge_weights,
        user_labels=graph.user_labels[user_order],
        merchant_labels=graph.merchant_labels[merchant_order],
    )


def load_edge_list_chunked(
    path: str | os.PathLike[str],
    batch_size: int = DEFAULT_BATCH_SIZE,
    strict: bool = True,
) -> BipartiteGraph:
    """Constant-memory equivalent of :func:`load_edge_list`.

    Streams the file in ``batch_size`` chunks through a
    :class:`~repro.graph.builder.GraphAccumulator` (so peak memory is the
    output graph plus one chunk) and returns a graph **bitwise-identical**
    to the whole-file loader's: same edge order, same sorted label arrays,
    same dtypes.

    ``strict=False`` skips the header ``edges=`` cross-check, for files
    still being appended to (the loaded graph then reflects whatever
    complete rows were present). A row cut mid-write still raises
    :class:`~repro.errors.GraphError` — a half-written token must never
    load as a different edge.
    """
    path = Path(path)
    with path.open("rb") as fh:
        fields = _parse_header(fh.readline(), path)
    weighted = _weighted_flag(fields, path)
    accumulator = GraphAccumulator()
    for batch in iter_edge_batches(path, batch_size=batch_size, strict=strict):
        accumulator.append(batch.users, batch.merchants, batch.weights)
    graph = _canonical_labels(accumulator.graph())
    if weighted and graph.edge_weights is None:
        # zero-edge weighted file: match the whole-file loader's empty array
        graph = graph.with_weights(np.empty(0, dtype=np.float64))
    return graph


def save_npz(graph: BipartiteGraph, path: str | os.PathLike[str]) -> None:
    """Save the full graph (including labels) to a ``.npz`` archive."""
    arrays = {
        "n_users": np.array([graph.n_users], dtype=np.int64),
        "n_merchants": np.array([graph.n_merchants], dtype=np.int64),
        "edge_users": graph.edge_users,
        "edge_merchants": graph.edge_merchants,
        "user_labels": graph.user_labels,
        "merchant_labels": graph.merchant_labels,
    }
    if graph.edge_weights is not None:
        arrays["edge_weights"] = graph.edge_weights
    np.savez_compressed(Path(path), **arrays)


def load_npz(path: str | os.PathLike[str]) -> BipartiteGraph:
    """Load a graph saved by :func:`save_npz` (exact round-trip)."""
    with np.load(Path(path)) as data:
        return BipartiteGraph(
            n_users=int(data["n_users"][0]),
            n_merchants=int(data["n_merchants"][0]),
            edge_users=data["edge_users"],
            edge_merchants=data["edge_merchants"],
            edge_weights=data["edge_weights"] if "edge_weights" in data else None,
            user_labels=data["user_labels"],
            merchant_labels=data["merchant_labels"],
        )


def iter_npz_batches(
    path: str | os.PathLike[str], batch_size: int = DEFAULT_BATCH_SIZE
) -> Iterator[EdgeBatch]:
    """Stream a saved ``.npz`` graph as :class:`EdgeBatch` chunks.

    Edges come out in stored order with endpoints translated back to
    **global labels**, so the batches are interchangeable with
    :func:`iter_edge_batches` output — e.g. both can seed the same
    :class:`~repro.graph.builder.GraphAccumulator` or be replayed into an
    incremental detector.
    """
    if batch_size < 1:
        raise GraphError(f"batch_size must be >= 1, got {batch_size}")
    with np.load(Path(path)) as data:
        edge_users = data["edge_users"]
        edge_merchants = data["edge_merchants"]
        user_labels = data["user_labels"]
        merchant_labels = data["merchant_labels"]
        weights = data["edge_weights"] if "edge_weights" in data else None
        for start in range(0, int(edge_users.size), batch_size):
            stop = min(start + batch_size, int(edge_users.size))
            yield EdgeBatch(
                users=user_labels[edge_users[start:stop]],
                merchants=merchant_labels[edge_merchants[start:stop]],
                weights=None if weights is None else weights[start:stop],
            )
