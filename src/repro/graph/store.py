"""Frozen columnar graph store, shipped to process workers as one file.

The ensemble fan-out needs the *parent* graph in every worker process, but
pickling a :class:`~repro.graph.BipartiteGraph` per sampled subgraph is
exactly the O(N·S·|E|) serialization wall the paper's "perfectly parallel"
claim ignores. A :class:`GraphStore` is the flat-array alternative: the
columns of a graph (edge endpoints, optional weights, node labels, and the
rolling-window overlay when present) packed back to back in one flat,
mmap-able **store file**. Each worker maps the file, wraps it zero-copy
as read-only numpy views, and materializes each compact
:class:`~repro.sampling.SamplePlan` locally — no graph bytes cross the
process boundary.

Store files
-----------
:meth:`GraphStore.save` writes the columns (magic + JSON header +
8-byte-aligned columns) and :meth:`GraphStore.open` maps them back lazily
with :class:`numpy.memmap`, so graphs larger than RAM never fully
materialize: fancy indexing on a mapped column touches only the pages it
reads. Workers receive the picklable :class:`StoreLayout` (the file's path
plus its sizes and dtypes) and map its file with :meth:`GraphStore.open`.

A parent opened from a store file ships that file. A resident parent is
spilled once per process fan-out: :meth:`GraphStore.export_shared` writes
the compacted store, without an fsync, into a private
``repro_gs_spill_<pid>_*`` temporary directory (:data:`SPILL_PREFIX`) and
returns the :class:`SpilledStore` handle that owns it.

Compact dtypes
--------------
:meth:`GraphStore.compact` (applied by default on :meth:`save`) narrows the
storage dtypes losslessly: node/edge ids to int32 whenever they fit, edge
weights to float32 only when the float64 round-trip is bit-exact. All
*compute* stays int64/float64 — gathers upcast at the boundary — so vote
tables are bitwise identical between wide and compact storage. Anything
that would silently wrap int32 raises :class:`~repro.errors.GraphError`
instead (see :meth:`StoreLayout.validate` and :class:`StoreFileWriter`).

Lifecycle contract
------------------
* the parent calls :meth:`GraphStore.export_shared` and owns the returned
  :class:`SpilledStore`; its :meth:`~SpilledStore.dispose` (or ``with``
  exit, or the ``weakref.finalize`` backstop) removes the spill directory,
* each worker opens the file named by the picklable :class:`StoreLayout`
  for its chunk of members; the mapping goes when the chunk's views are
  collected,
* removing the spill directory unlinks the file at once (Linux keeps live
  mappings valid), so no ``repro_gs_spill_*`` entry under
  :func:`tempfile.gettempdir` outlives the fit; file-backed stores are
  plain files owned by whoever created them,
* a parent that is SIGKILLed or OOM-killed mid fan-out runs neither
  ``dispose()`` nor the finalizer; the owner pid in the directory name
  lets the next :meth:`GraphStore.export_shared` remove what it left.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import weakref
from dataclasses import dataclass

import numpy as np

from ..errors import GraphError
from .bipartite import BipartiteGraph
from .window import EdgeWindow

__all__ = [
    "SPILL_PREFIX",
    "GraphStore",
    "SpilledStore",
    "StoreFileWriter",
    "StoreLayout",
    "read_file_layout",
]

#: name prefix of the spill directories under :func:`tempfile.gettempdir`;
#: the owner's pid and ``_`` follow it
SPILL_PREFIX = "repro_gs_spill_"

_INT = np.dtype(np.int64)
_INT32 = np.dtype(np.int32)
_FLOAT = np.dtype(np.float64)
_FLOAT32 = np.dtype(np.float32)
_BOOL = np.dtype(np.bool_)

#: largest value an int32 id/label/count may take before compaction refuses
INT32_MAX = int(np.iinfo(np.int32).max)

_INT_DTYPES = {"int32": _INT32, "int64": _INT}
_FLOAT_DTYPES = {"float32": _FLOAT32, "float64": _FLOAT}

#: on-disk format: magic, then an 8-byte little-endian header length, then
#: the JSON header; columns start at a fixed page-aligned offset
_MAGIC = b"REPROGS1"
_DATA_OFFSET = 4096


def _named_dtype(name: str, table: dict[str, np.dtype], field: str) -> np.dtype:
    try:
        return table[name]
    except KeyError:
        raise GraphError(
            f"unsupported store {field} {name!r} (expected one of {sorted(table)})"
        ) from None


@dataclass(frozen=True)
class StoreLayout:
    """Picklable descriptor of one graph store file (~100 B).

    The five columns live at fixed, derivable offsets — ``edge_users``,
    ``edge_merchants`` (``id_dtype``), ``user_labels``, ``merchant_labels``
    (``label_dtype``), then ``edge_weights`` (``weight_dtype``) when
    ``weighted`` — so the layout only needs the partition sizes and dtype
    names, not per-array bookkeeping. ``windowed`` appends the two
    rolling-window columns, ``edge_ids`` (``eid_dtype`` append ids) and
    ``edge_alive`` (bool liveness mask), so windowed fits ship their
    liveness overlay through the same zero-copy file.

    ``path`` is the store file workers map lazily. Every column offset is
    rounded up to 8 bytes so mixed-width layouts stay aligned for mmap
    views.
    """

    path: str
    n_users: int
    n_merchants: int
    n_edges: int
    weighted: bool
    windowed: bool = False
    id_dtype: str = "int64"
    label_dtype: str = "int64"
    eid_dtype: str = "int64"
    weight_dtype: str = "float64"

    @property
    def nbytes(self) -> int:
        """Total payload size of the buffer in bytes."""
        slots = self.slots()
        if not slots:  # pragma: no cover - layouts always have >= 4 columns
            return 0
        name, offset, dtype, length = slots[-1]
        return offset + dtype.itemsize * length

    def slots(self) -> list[tuple[str, int, np.dtype, int]]:
        """``(column, offset, dtype, length)`` for every stored column."""
        columns = [
            ("edge_users", self.n_edges, _named_dtype(self.id_dtype, _INT_DTYPES, "id_dtype")),
            ("edge_merchants", self.n_edges, _named_dtype(self.id_dtype, _INT_DTYPES, "id_dtype")),
            ("user_labels", self.n_users, _named_dtype(self.label_dtype, _INT_DTYPES, "label_dtype")),
            ("merchant_labels", self.n_merchants, _named_dtype(self.label_dtype, _INT_DTYPES, "label_dtype")),
        ]
        if self.weighted:
            columns.append(
                ("edge_weights", self.n_edges, _named_dtype(self.weight_dtype, _FLOAT_DTYPES, "weight_dtype"))
            )
        if self.windowed:
            columns.append(
                ("edge_ids", self.n_edges, _named_dtype(self.eid_dtype, _INT_DTYPES, "eid_dtype"))
            )
            columns.append(("edge_alive", self.n_edges, _BOOL))
        out = []
        offset = 0
        for name, length, dtype in columns:
            offset = (offset + 7) & ~7  # 8-byte alignment for mmap views
            out.append((name, offset, dtype, length))
            offset += dtype.itemsize * length
        return out

    def validate(self) -> None:
        """Reject layouts that could silently wrap compact int32 storage.

        int32 node ids can address at most ``2**31`` nodes; a layout
        declaring more would make the endpoint columns wrap on write, so
        it raises :class:`~repro.errors.GraphError` instead (the explicit
        overflow guard of the compact-dtype contract). Also validates the
        dtype names, so a corrupted file header fails loudly here rather
        than as a garbage mapping.
        """
        if min(self.n_users, self.n_merchants, self.n_edges) < 0:
            raise GraphError("store layout sizes must be non-negative")
        _named_dtype(self.id_dtype, _INT_DTYPES, "id_dtype")
        _named_dtype(self.label_dtype, _INT_DTYPES, "label_dtype")
        _named_dtype(self.eid_dtype, _INT_DTYPES, "eid_dtype")
        _named_dtype(self.weight_dtype, _FLOAT_DTYPES, "weight_dtype")
        largest_side = max(self.n_users, self.n_merchants)
        if self.id_dtype == "int32" and largest_side > INT32_MAX + 1:
            raise GraphError(
                f"int32 node ids cannot address {largest_side} nodes "
                f"(max {INT32_MAX + 1}); use id_dtype='int64'"
            )

    def as_header(self) -> dict:
        """JSON-able file-header form (``path`` is implicit)."""
        return {
            "n_users": self.n_users,
            "n_merchants": self.n_merchants,
            "n_edges": self.n_edges,
            "weighted": self.weighted,
            "windowed": self.windowed,
            "id_dtype": self.id_dtype,
            "label_dtype": self.label_dtype,
            "eid_dtype": self.eid_dtype,
            "weight_dtype": self.weight_dtype,
        }


def _narrow_index_column(array: np.ndarray, bound: int) -> np.ndarray:
    """int32 copy of an index column when its bound fits, else unchanged."""
    if array.dtype == _INT32:
        return array
    if bound <= INT32_MAX + 1:  # max index bound-1 fits int32
        return array.astype(_INT32)
    return array


def _narrow_value_column(array: np.ndarray) -> np.ndarray:
    """int32 copy of a value column (labels, append ids) when values fit."""
    if array.dtype == _INT32:
        return array
    if array.dtype != _INT:
        return array
    if array.size == 0:
        return array.astype(_INT32)
    lo, hi = int(array.min()), int(array.max())
    if lo >= -(INT32_MAX + 1) and hi <= INT32_MAX:
        return array.astype(_INT32)
    return array


def _narrow_weight_column(array: np.ndarray | None) -> np.ndarray | None:
    """float32 weights only when the float64 round-trip is bit-exact."""
    if array is None or array.dtype == _FLOAT32:
        return array
    if array.dtype != _FLOAT:
        return array
    narrowed = array.astype(_FLOAT32)
    if np.array_equal(narrowed.astype(_FLOAT), array):
        return narrowed
    return array


def _int_dtype_name(*arrays: np.ndarray) -> str:
    return "int32" if all(a.dtype == _INT32 for a in arrays) else "int64"


class GraphStore:
    """The frozen columnar form of one bipartite graph.

    Wraps the parent graph's arrays **zero-copy** (:meth:`from_graph`) or a
    mapped store file (:meth:`open`); :meth:`to_graph` goes back to a :class:`BipartiteGraph`
    through the trusted constructor, again without copying, so a store
    round-trip costs O(1). ``layout`` is set only on file-backed stores
    (the descriptor workers re-map the same file from).
    """

    __slots__ = (
        "n_users",
        "n_merchants",
        "edge_users",
        "edge_merchants",
        "edge_weights",
        "user_labels",
        "merchant_labels",
        "edge_ids",
        "edge_alive",
        "layout",
        "__weakref__",
    )

    def __init__(
        self,
        n_users: int,
        n_merchants: int,
        edge_users: np.ndarray,
        edge_merchants: np.ndarray,
        edge_weights: np.ndarray | None,
        user_labels: np.ndarray,
        merchant_labels: np.ndarray,
        edge_ids: np.ndarray | None = None,
        edge_alive: np.ndarray | None = None,
    ) -> None:
        self.n_users = int(n_users)
        self.n_merchants = int(n_merchants)
        self.edge_users = edge_users
        self.edge_merchants = edge_merchants
        self.edge_weights = edge_weights
        self.user_labels = user_labels
        self.merchant_labels = merchant_labels
        self.edge_ids = edge_ids
        self.edge_alive = edge_alive
        self.layout: StoreLayout | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_graph(cls, graph: BipartiteGraph, window: EdgeWindow | None = None) -> "GraphStore":
        """Wrap ``graph``'s columns (and a liveness overlay) without copying."""
        if window is not None and window.alive.shape != (graph.n_edges,):
            raise GraphError(
                f"window columns cover {window.alive.shape[0]} rows, "
                f"graph has {graph.n_edges}"
            )
        return cls(
            n_users=graph.n_users,
            n_merchants=graph.n_merchants,
            edge_users=graph.edge_users,
            edge_merchants=graph.edge_merchants,
            edge_weights=graph.edge_weights,
            user_labels=graph.user_labels,
            merchant_labels=graph.merchant_labels,
            edge_ids=None if window is None else window.edge_ids,
            edge_alive=None if window is None else window.alive,
        )

    def edge_window(self) -> EdgeWindow | None:
        """The liveness overlay, when this store carries one."""
        if self.edge_alive is None or self.edge_ids is None:
            return None
        return EdgeWindow(alive=self.edge_alive, edge_ids=self.edge_ids)

    def to_graph(self) -> BipartiteGraph:
        """A :class:`BipartiteGraph` view over the stored columns.

        Uses the trusted constructor — the columns came from an already
        validated graph (or a store file exported from one), so the
        O(|E|) bounds scan is skipped. Compact int32/float32 columns ride
        through as-is; every compute path upcasts at its gather points.
        """
        return BipartiteGraph._from_trusted(
            n_users=self.n_users,
            n_merchants=self.n_merchants,
            edge_users=self.edge_users,
            edge_merchants=self.edge_merchants,
            edge_weights=self.edge_weights,
            user_labels=self.user_labels,
            merchant_labels=self.merchant_labels,
        )

    @property
    def n_edges(self) -> int:
        """Number of edges ``|E|``."""
        return int(self.edge_users.shape[0])

    @property
    def nbytes(self) -> int:
        """Total size of the stored columns in bytes."""
        total = self.edge_users.nbytes + self.edge_merchants.nbytes
        total += self.user_labels.nbytes + self.merchant_labels.nbytes
        if self.edge_weights is not None:
            total += self.edge_weights.nbytes
        if self.edge_ids is not None:
            total += self.edge_ids.nbytes
        if self.edge_alive is not None:
            total += self.edge_alive.nbytes
        return total

    # ------------------------------------------------------------------
    # compact dtypes
    # ------------------------------------------------------------------

    def compact(self) -> "GraphStore":
        """A store with the narrowest **lossless** storage dtypes.

        Endpoint ids narrow to int32 when the partition sizes fit; labels
        and append ids narrow when their actual values fit; weights narrow
        to float32 only when the float64 round-trip is bit-exact (so the
        kernel's ``(double)w`` load reproduces the wide weights exactly).
        Columns that already have the target dtype are shared, not copied.
        Both endpoint (and both label) columns always share one dtype so
        one layout field describes them.
        """
        edge_users = _narrow_index_column(self.edge_users, self.n_users)
        edge_merchants = _narrow_index_column(self.edge_merchants, self.n_merchants)
        if edge_users.dtype != edge_merchants.dtype:
            edge_users, edge_merchants = self.edge_users, self.edge_merchants
        user_labels = _narrow_value_column(self.user_labels)
        merchant_labels = _narrow_value_column(self.merchant_labels)
        if user_labels.dtype != merchant_labels.dtype:
            user_labels, merchant_labels = self.user_labels, self.merchant_labels
        return GraphStore(
            n_users=self.n_users,
            n_merchants=self.n_merchants,
            edge_users=edge_users,
            edge_merchants=edge_merchants,
            edge_weights=_narrow_weight_column(self.edge_weights),
            user_labels=user_labels,
            merchant_labels=merchant_labels,
            edge_ids=None if self.edge_ids is None else _narrow_value_column(self.edge_ids),
            edge_alive=self.edge_alive,
        )

    def _layout_for(self, path: str) -> StoreLayout:
        """The layout describing this store's actual column dtypes."""
        return StoreLayout(
            path=path,
            n_users=self.n_users,
            n_merchants=self.n_merchants,
            n_edges=self.n_edges,
            weighted=self.edge_weights is not None,
            windowed=self.edge_alive is not None and self.edge_ids is not None,
            id_dtype=_int_dtype_name(self.edge_users, self.edge_merchants),
            label_dtype=_int_dtype_name(self.user_labels, self.merchant_labels),
            eid_dtype="int64" if self.edge_ids is None else _int_dtype_name(self.edge_ids),
            weight_dtype=(
                "float32"
                if self.edge_weights is not None and self.edge_weights.dtype == _FLOAT32
                else "float64"
            ),
        )

    # ------------------------------------------------------------------
    # spill for process workers
    # ------------------------------------------------------------------

    def export_shared(self) -> "SpilledStore":
        """Spill the compacted store to a private file for process workers.

        The file is written as by :meth:`save`, without the fsync, into a
        fresh ``repro_gs_spill_<pid>_*`` directory under
        :func:`tempfile.gettempdir`, after removing the spill directories
        of processes that no longer exist. The returned handle owns that
        directory; dispose it (explicitly or via ``with``) once the
        fan-out that maps the file has completed. Raises :class:`OSError`
        when the file cannot be written; the directory is removed first.
        """
        _remove_orphaned_spills()
        directory = tempfile.mkdtemp(prefix=f"{SPILL_PREFIX}{os.getpid()}_")
        try:
            # workers read the file through the page cache and it is gone
            # once the fan-out ends: durability would only cost an fsync
            layout = self._write(os.path.join(directory, "graph.store"), durable=False)
        except BaseException:
            shutil.rmtree(directory, ignore_errors=True)
            raise
        return SpilledStore(layout, directory)

    # ------------------------------------------------------------------
    # file export / mmap open
    # ------------------------------------------------------------------

    def save(self, path: str | os.PathLike[str], compact: bool = True) -> StoreLayout:
        """Write the store to one flat, mmap-able file.

        The columns sit at the derivable offsets of :meth:`StoreLayout.slots`,
        preceded by a fixed 4 KiB header (magic + JSON
        :meth:`StoreLayout.as_header`). ``compact=True``
        (the default) narrows storage dtypes losslessly first — int32 ids
        and labels when they fit, float32 weights when bit-exact.

        Returns the file's :class:`StoreLayout` — the picklable
        descriptor :func:`~repro.ensemble.runner.detect_on_plans` ships to
        workers instead of copying columns; each worker maps the file back
        with :meth:`open`.
        """
        return self._write(path, compact=compact, durable=True)

    def _write(
        self, path: str | os.PathLike[str], compact: bool = True, durable: bool = True
    ) -> StoreLayout:
        store = self.compact() if compact else self
        path = os.path.abspath(os.fspath(path))
        layout = store._layout_for(path)
        layout.validate()
        header = json.dumps({"format": 1, **layout.as_header()}, sort_keys=True).encode("utf-8")
        if len(header) > _DATA_OFFSET - len(_MAGIC) - 8:  # pragma: no cover - fixed keys
            raise GraphError("graph store file header too large")
        with open(path, "wb") as handle:
            handle.write(_MAGIC)
            handle.write(len(header).to_bytes(8, "little"))
            handle.write(header)
            for name, offset, dtype, length in layout.slots():
                handle.seek(_DATA_OFFSET + offset)
                np.ascontiguousarray(getattr(store, name), dtype=dtype).tofile(handle)
            handle.truncate(_DATA_OFFSET + layout.nbytes)
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
        return layout

    @classmethod
    def open(cls, path: str | os.PathLike[str], mmap: bool = True) -> "GraphStore":
        """Open a store file written by :meth:`save` / :class:`StoreFileWriter`.

        ``mmap=True`` (the default) wraps each column as a read-only
        :class:`numpy.memmap` view — nothing is read until touched, so a
        store larger than RAM opens in O(1) and fancy indexing on a column
        reads only the pages it needs. ``mmap=False`` loads resident
        copies (small stores, or when the file will be deleted while the
        graph is still in use). The returned store carries its file
        ``layout``, which process fan-outs ship instead of graph bytes.
        """
        return cls._from_file(read_file_layout(path), mmap=mmap)

    @classmethod
    def _from_file(cls, layout: StoreLayout, mmap: bool) -> "GraphStore":
        columns: dict[str, np.ndarray] = {}
        buffer = None
        if mmap and layout.nbytes:
            buffer = np.memmap(
                layout.path,
                dtype=np.uint8,
                mode="r",
                offset=_DATA_OFFSET,
                shape=(layout.nbytes,),
            )
        handle = None
        try:
            if not mmap:
                handle = open(layout.path, "rb")
            for name, offset, dtype, length in layout.slots():
                if not length:
                    columns[name] = np.empty(0, dtype=dtype)
                elif mmap:
                    columns[name] = buffer[offset : offset + dtype.itemsize * length].view(dtype)
                else:
                    handle.seek(_DATA_OFFSET + offset)
                    column = np.fromfile(handle, dtype=dtype, count=length)
                    if column.shape[0] != length:
                        raise GraphError(
                            f"{layout.path}: graph store file truncated in column {name!r}"
                        )
                    column.flags.writeable = False
                    columns[name] = column
        finally:
            if handle is not None:
                handle.close()
        store = cls(
            n_users=layout.n_users,
            n_merchants=layout.n_merchants,
            edge_users=columns["edge_users"],
            edge_merchants=columns["edge_merchants"],
            edge_weights=columns.get("edge_weights"),
            user_labels=columns["user_labels"],
            merchant_labels=columns["merchant_labels"],
            edge_ids=columns.get("edge_ids"),
            edge_alive=columns.get("edge_alive"),
        )
        store.layout = layout
        return store


def read_file_layout(path: str | os.PathLike[str]) -> StoreLayout:
    """Parse and validate the header of a graph store file.

    Raises :class:`~repro.errors.GraphError` for a missing file, wrong
    magic, unreadable header, unsupported dtypes, or a file shorter than
    the header promises — never a raw decoder exception.
    """
    path = os.path.abspath(os.fspath(path))
    try:
        with open(path, "rb") as handle:
            magic = handle.read(len(_MAGIC))
            if magic != _MAGIC:
                raise GraphError(f"{path!r} is not a graph store file (bad magic)")
            header_len = int.from_bytes(handle.read(8), "little")
            if not 0 < header_len <= _DATA_OFFSET - len(_MAGIC) - 8:
                raise GraphError(f"{path!r}: graph store file header length {header_len} is corrupt")
            raw = handle.read(header_len)
            if len(raw) != header_len:
                raise GraphError(f"{path!r}: graph store file truncated inside its header")
            header = json.loads(raw.decode("utf-8"))
    except FileNotFoundError as exc:
        raise GraphError(
            f"graph store file {path!r} does not exist (deleted while workers ran?)"
        ) from exc
    except (ValueError, UnicodeDecodeError) as exc:
        raise GraphError(f"{path!r}: corrupt graph store file header ({exc})") from exc
    try:
        layout = StoreLayout(
            path=path,
            n_users=int(header["n_users"]),
            n_merchants=int(header["n_merchants"]),
            n_edges=int(header["n_edges"]),
            weighted=bool(header["weighted"]),
            windowed=bool(header.get("windowed", False)),
            id_dtype=str(header.get("id_dtype", "int64")),
            label_dtype=str(header.get("label_dtype", "int64")),
            eid_dtype=str(header.get("eid_dtype", "int64")),
            weight_dtype=str(header.get("weight_dtype", "float64")),
        )
    except KeyError as exc:
        raise GraphError(f"{path!r}: graph store file header is missing {exc}") from None
    layout.validate()
    actual = os.path.getsize(path)
    expected = _DATA_OFFSET + layout.nbytes
    if actual < expected:
        raise GraphError(
            f"{path!r}: graph store file truncated ({actual} bytes, header promises {expected})"
        )
    return layout


class StoreFileWriter:
    """Stream a graph store file chunk by chunk, with bounded RAM.

    The chunked dataset emitters use this to write 10M+-edge benchmark
    graphs straight to an mmap-able store without ever materializing the
    full edge set: edges arrive in batches (:meth:`append`), labels
    default to identity, and each batch is bounds-checked against the
    declared partition sizes before the narrow-dtype cast — an
    out-of-range or int32-overflowing value raises
    :class:`~repro.errors.GraphError` instead of wrapping silently.

    ``id_dtype="auto"`` (the default) picks int32 whenever the declared
    partition sizes fit, int64 otherwise — the same policy as
    :meth:`GraphStore.compact`.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        n_users: int,
        n_merchants: int,
        n_edges: int,
        weighted: bool = False,
        id_dtype: str = "auto",
        weight_dtype: str = "float64",
    ) -> None:
        if min(n_users, n_merchants, n_edges) < 0:
            raise GraphError("store sizes must be non-negative")
        if id_dtype == "auto":
            id_dtype = "int32" if max(n_users, n_merchants) <= INT32_MAX + 1 else "int64"
        path = os.path.abspath(os.fspath(path))
        self._layout = StoreLayout(
            path=path,
            n_users=int(n_users),
            n_merchants=int(n_merchants),
            n_edges=int(n_edges),
            weighted=bool(weighted),
            windowed=False,
            id_dtype=id_dtype,
            label_dtype=id_dtype,
            eid_dtype="int64",
            weight_dtype=weight_dtype,
        )
        self._layout.validate()
        self._slots = {
            name: (offset, dtype, length) for name, offset, dtype, length in self._layout.slots()
        }
        header = json.dumps({"format": 1, **self._layout.as_header()}, sort_keys=True).encode("utf-8")
        self._handle = open(path, "w+b")
        try:
            self._handle.write(_MAGIC)
            self._handle.write(len(header).to_bytes(8, "little"))
            self._handle.write(header)
            self._handle.truncate(_DATA_OFFSET + self._layout.nbytes)
        except BaseException:
            self._handle.close()
            raise
        self._written = 0
        self._labels_set = {"user_labels": False, "merchant_labels": False}
        self._closed = False

    @property
    def layout(self) -> StoreLayout:
        """The file layout being written (valid to open after :meth:`close`)."""
        return self._layout

    @property
    def n_pending(self) -> int:
        """Edges still to be appended before :meth:`close` will succeed."""
        return self._layout.n_edges - self._written

    def _write_column(self, name: str, start: int, values: np.ndarray) -> None:
        offset, dtype, length = self._slots[name]
        self._handle.seek(_DATA_OFFSET + offset + start * dtype.itemsize)
        np.ascontiguousarray(values, dtype=dtype).tofile(self._handle)

    def append(
        self,
        users: np.ndarray,
        merchants: np.ndarray,
        weights: np.ndarray | None = None,
    ) -> None:
        """Append one chunk of edges (endpoint arrays, optional weights)."""
        if self._closed:
            raise GraphError("cannot append to a closed StoreFileWriter")
        users = np.ascontiguousarray(users)
        merchants = np.ascontiguousarray(merchants)
        if users.shape != merchants.shape or users.ndim != 1:
            raise GraphError("edge endpoint chunks must be 1-D arrays of equal length")
        n = int(users.shape[0])
        if self._written + n > self._layout.n_edges:
            raise GraphError(
                f"chunk of {n} edges overflows the declared edge count "
                f"{self._layout.n_edges} ({self._written} already written)"
            )
        if (weights is not None) != self._layout.weighted:
            raise GraphError(
                "chunk weights must be provided exactly when the store is weighted"
            )
        if n:
            if int(users.min()) < 0 or int(users.max()) >= self._layout.n_users:
                raise GraphError(
                    f"edge_users chunk contains an out-of-range index "
                    f"(valid range 0..{self._layout.n_users - 1})"
                )
            if int(merchants.min()) < 0 or int(merchants.max()) >= self._layout.n_merchants:
                raise GraphError(
                    f"edge_merchants chunk contains an out-of-range index "
                    f"(valid range 0..{self._layout.n_merchants - 1})"
                )
        self._write_column("edge_users", self._written, users)
        self._write_column("edge_merchants", self._written, merchants)
        if weights is not None:
            weights = np.ascontiguousarray(weights, dtype=np.float64)
            if weights.shape != users.shape:
                raise GraphError("chunk weights length does not match its edge count")
            if self._slots["edge_weights"][1] == _FLOAT32:
                narrowed = weights.astype(_FLOAT32)
                if not np.array_equal(narrowed.astype(_FLOAT), weights):
                    raise GraphError(
                        "chunk weights do not survive the store's float32 weight "
                        "dtype bit-exactly; write with weight_dtype='float64'"
                    )
            self._write_column("edge_weights", self._written, weights)
        self._written += n

    def _set_labels(self, name: str, labels: np.ndarray, n: int) -> None:
        labels = np.ascontiguousarray(labels)
        if labels.shape != (n,):
            raise GraphError(f"{name} must have length {n}, got {labels.shape}")
        offset, dtype, length = self._slots[name]
        if dtype == _INT32 and labels.size:
            lo, hi = int(labels.min()), int(labels.max())
            if lo < -(INT32_MAX + 1) or hi > INT32_MAX:
                raise GraphError(
                    f"{name} value {hi if hi > INT32_MAX else lo} does not fit the "
                    "store's int32 label dtype; write with id_dtype='int64'"
                )
        self._write_column(name, 0, labels)
        self._labels_set[name] = True

    def set_user_labels(self, labels: np.ndarray) -> None:
        """Replace the default identity user labels."""
        self._set_labels("user_labels", labels, self._layout.n_users)

    def set_merchant_labels(self, labels: np.ndarray) -> None:
        """Replace the default identity merchant labels."""
        self._set_labels("merchant_labels", labels, self._layout.n_merchants)

    def close(self) -> StoreLayout:
        """Finish the file (default labels, fsync) and return its layout."""
        if self._closed:
            return self._layout
        if self._written != self._layout.n_edges:
            raise GraphError(
                f"store file incomplete: {self._written} of "
                f"{self._layout.n_edges} declared edges appended"
            )
        chunk = 1 << 20
        for name, n in (
            ("user_labels", self._layout.n_users),
            ("merchant_labels", self._layout.n_merchants),
        ):
            if self._labels_set[name]:
                continue
            for start in range(0, n, chunk):
                stop = min(start + chunk, n)
                self._write_column(name, start, np.arange(start, stop, dtype=np.int64))
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()
        self._closed = True
        return self._layout

    def abort(self) -> None:
        """Drop an unfinished write: close the handle, remove the partial file."""
        if not self._closed:
            self._closed = True
            self._handle.close()
            try:
                os.unlink(self._layout.path)
            except OSError:
                pass

    def __enter__(self) -> "StoreFileWriter":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


def _remove_orphaned_spills() -> None:
    """Remove the spill directories whose owner process is gone."""
    if os.name != "posix":  # pragma: no cover - os.kill(pid, 0) probes liveness on POSIX only
        return
    root = tempfile.gettempdir()
    try:
        names = os.listdir(root)
    except OSError:
        return
    for name in names:
        owner = name[len(SPILL_PREFIX) :].partition("_")[0]
        if name.startswith(SPILL_PREFIX) and owner.isdigit() and not _pid_alive(int(owner)):
            shutil.rmtree(os.path.join(root, name), ignore_errors=True)


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OverflowError):  # another user's process, or not a pid
        pass
    return True


class SpilledStore:
    """Parent-side handle of one spilled store file (owns its directory).

    ``dispose()`` removes the spill directory; it is idempotent and also
    wired as a ``weakref.finalize`` backstop, so dropping the last
    reference can never leak a ``repro_gs_spill_*`` directory.
    """

    def __init__(self, layout: StoreLayout, directory: str) -> None:
        self.layout = layout
        self.directory = directory
        self._finalizer = weakref.finalize(
            self, shutil.rmtree, directory, ignore_errors=True
        )

    @property
    def disposed(self) -> bool:
        """``True`` once the spill directory has been removed."""
        return not self._finalizer.alive

    def dispose(self) -> None:
        """Remove the spill directory (idempotent)."""
        self._finalizer()

    def __enter__(self) -> "SpilledStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.dispose()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "disposed" if self.disposed else f"{self.layout.nbytes} bytes"
        return f"SpilledStore({self.layout.path}, {state})"
