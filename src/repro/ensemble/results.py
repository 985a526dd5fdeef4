"""Result containers for ensemble detection, and the on-disk state format.

Besides the :class:`DetectionResult` and :class:`VoteCounts` value objects
(flagged labels; a ``label -> count`` view of a label array and a parallel
count array, which the vote table and the serving snapshot hold) this
module defines the
persistence layer for *warm* detection state: :class:`DetectionState`
bundles everything an incremental detector needs to resume scoring after a
restart — the accumulated graph, each ensemble member's last detection and
sample contents, and a JSON-able config fingerprint — and
:func:`save_detection_state` / :func:`load_detection_state` round-trip it
through a single ``.npz`` archive (ragged per-sample arrays are packed as
one concatenated array plus offsets).

Persistence is crash-safe:

* **Atomic commit** — the archive is written to a ``.tmp`` sibling,
  fsynced, and renamed over the target (``os.replace``); the previous
  snapshot is first rotated to a rolling ``.bak``. A crash at any byte
  leaves either the old snapshot, the backup, or both on disk — never a
  half-written primary.
* **Integrity** — since format v2 a per-array CRC-32 manifest is stored;
  any byte flip in the payload fails either the zip container's own CRC or
  the manifest and surfaces as :class:`~repro.errors.StateChecksumError`,
  never as a silently-wrong vote table. v1 archives (pre-checksum) still
  load.
* **Windowing** — format v3 records a window configuration, the
  live-edge watermark/batch records, and each live edge's original append
  id, so a detector resumes with stable stripe membership. Archives saved
  without a window (v1, v2, and v4 archives of append-only detectors)
  still load; :meth:`~repro.ensemble.IncrementalEnsemFDet.from_state`
  resumes them as a window with no bound over append ids ``0..|E|-1``,
  and they save back with window arrays.
* **Compact dtypes** — format v4 stores index arrays (edge endpoints,
  per-sample node lists, edge ids) as ``int32`` when their values fit, and
  weights as ``float32`` when the ``float64`` round-trip is bit-exact —
  storage-only narrowing, mirroring the
  :class:`~repro.graph.GraphStore` dtype policy. Loaders upcast back to
  ``int64``/``float64``, so results are unchanged; v1–v3 archives (all
  wide) still load.
* **Recovery** — :func:`load_detection_state_with_recovery` falls back to
  the ``.bak`` snapshot when the primary is corrupt or missing, which is
  what the ``watch``/``update`` CLI uses to resume after a crash.
"""

from __future__ import annotations

import json
import os
import zipfile
import zlib
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.format import write_array

from ..errors import DetectionError, StateChecksumError, StateError
from ..faults import fault_point
from ..graph import BipartiteGraph
from ..graph.store import (
    _narrow_index_column,
    _narrow_value_column,
    _narrow_weight_column,
)
from ..logging_utils import get_logger

logger = get_logger("state")

__all__ = [
    "DetectionResult",
    "DetectionState",
    "VoteCounts",
    "save_detection_state",
    "load_detection_state",
    "load_detection_state_with_recovery",
    "state_backup_path",
]

#: bumped whenever the archive layout changes incompatibly
STATE_FORMAT_VERSION = 4

#: older formats this build still reads
#: (v1: no checksum manifest; v2: no window metadata; v3: wide dtypes only)
_LEGACY_FORMAT_VERSIONS = (1, 2, 3)

_EMPTY = np.empty(0, dtype=np.int64)


class VoteCounts(Mapping):
    """Read-only ``label -> count`` mapping over a label array and a parallel count array.

    No label holds two nonzero counts. As in :class:`collections.Counter`, a
    label without a count reads 0 and is not ``in`` the mapping; the dict
    behind lookups is built on first access, so array code never pays for it.
    """

    __slots__ = ("labels", "counts", "_dict")

    def __init__(self, labels: np.ndarray, counts: np.ndarray) -> None:
        self.labels, self.counts, self._dict = labels, counts, None

    @classmethod
    def tally(cls, label_sets: Sequence[Iterable[int]]) -> "VoteCounts":
        """Count every occurrence of every label, over sorted unique labels."""
        arrays = [s if isinstance(s, np.ndarray) else np.fromiter(s, np.int64) for s in label_sets]
        return cls(*np.unique(np.concatenate([_EMPTY, *arrays]), return_counts=True))

    def _map(self) -> dict[int, int]:
        if self._dict is None:
            hit = np.flatnonzero(self.counts)
            self._dict = dict(zip(self.labels[hit].tolist(), self.counts[hit].tolist()))
        return self._dict

    def __getitem__(self, label) -> int:
        return self._map().get(label, 0)

    def get(self, label, default=None):
        return self._map().get(label, default)

    def __contains__(self, label) -> bool:
        return label in self._map()

    def __iter__(self):
        return iter(self._map())

    def __len__(self) -> int:
        return int(np.count_nonzero(self.counts))

    def voted(self) -> tuple[np.ndarray, np.ndarray]:
        """The labels with a nonzero count, ascending, and their counts."""
        hit = np.flatnonzero(self.counts)
        hit = hit[np.argsort(self.labels[hit])]
        return self.labels[hit], self.counts[hit]

    def accepted(self, threshold: int) -> np.ndarray:
        """The labels counted at least ``threshold`` (≥ 1) times, ascending."""
        return np.sort(self.labels[self.counts >= threshold])


@dataclass(frozen=True)
class DetectionResult:
    """Final output of a fraud detector: the flagged node labels.

    ``user_labels`` / ``merchant_labels`` are sorted unique global labels of
    the original graph (the paper's ``U_final`` and ``V_final``).
    """

    user_labels: np.ndarray
    merchant_labels: np.ndarray

    @property
    def n_users(self) -> int:
        """Number of flagged users (detected PINs)."""
        return int(self.user_labels.size)

    @property
    def n_merchants(self) -> int:
        """Number of flagged merchants."""
        return int(self.merchant_labels.size)

    def user_set(self) -> set[int]:
        """Flagged users as a python set (handy for metric code)."""
        return set(self.user_labels.tolist())

    def merchant_set(self) -> set[int]:
        """Flagged merchants as a python set."""
        return set(self.merchant_labels.tolist())

    @classmethod
    def empty(cls) -> "DetectionResult":
        """A detection that flagged nothing."""
        return cls(
            user_labels=np.empty(0, dtype=np.int64),
            merchant_labels=np.empty(0, dtype=np.int64),
        )


@dataclass
class DetectionState:
    """Warm per-sample detection state of a fitted ensemble.

    Attributes
    ----------
    config:
        JSON-able fingerprint of the ensemble configuration (built and
        interpreted by :class:`repro.ensemble.IncrementalEnsemFDet`).
    graph:
        The accumulated input graph the state was last synchronised with.
    detected_users, detected_merchants:
        Per-sample arrays of detected node labels (length ``N`` lists).
    sample_users, sample_merchants:
        Per-sample arrays of the node labels each sampled subgraph
        *contained* (needed to refresh appearance-normalised voting).
    meta:
        Free-form JSON-able annotations carried alongside the state (e.g.
        the ``watch`` CLI records how many rows of its source file are
        already ingested). Preserved verbatim across save/load.
    window:
        A JSON-able dict ``{"config": ..., "watermark": ..., "batches": ...}``
        describing the detector's window (see
        :meth:`repro.graph.GraphAccumulator.window_state`); ``graph`` then
        holds only the *live* edges. ``None`` in archives saved without a
        window, whose edges are all live.
    edge_ids:
        Original append ids of ``graph``'s rows (int64, strictly
        increasing) when ``window`` is set; ``None`` otherwise. These keep
        stripe-hash sample membership stable across expiry/compaction.
    """

    config: dict
    graph: BipartiteGraph
    detected_users: list[np.ndarray]
    detected_merchants: list[np.ndarray]
    sample_users: list[np.ndarray]
    sample_merchants: list[np.ndarray]
    meta: dict = field(default_factory=dict)
    window: dict | None = None
    edge_ids: np.ndarray | None = None

    @property
    def n_samples(self) -> int:
        """Ensemble size ``N``."""
        return len(self.detected_users)


def _pack_ragged(arrays: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate int64 arrays and record the split offsets."""
    lengths = np.array([a.size for a in arrays], dtype=np.int64)
    offsets = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    if arrays:
        flat = np.concatenate([np.asarray(a, dtype=np.int64) for a in arrays])
    else:
        flat = np.empty(0, dtype=np.int64)
    return flat, offsets


def _unpack_ragged(flat: np.ndarray, offsets: np.ndarray) -> list[np.ndarray]:
    return [
        flat[offsets[i] : offsets[i + 1]].astype(np.int64, copy=False)
        for i in range(offsets.size - 1)
    ]


def _array_crc(array: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(array).tobytes())


def _npz_path(path: str | os.PathLike[str]) -> Path:
    # mirror np.savez's implicit suffix so save and load agree on the name
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    return path


def state_backup_path(path: str | os.PathLike[str]) -> Path:
    """The rolling backup sibling of a state archive.

    Named ``<stem>.bak.npz`` (not ``…npz.bak``) so the backup is itself a
    well-formed archive path: every loader normalises through
    :func:`_npz_path`, which must leave the backup name untouched.
    """
    path = _npz_path(path)
    return path.with_name(path.name[: -len(".npz")] + ".bak.npz")


def _fsync_directory(directory: Path) -> None:
    """Make renames inside ``directory`` durable (best effort)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - e.g. exotic filesystems
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def save_detection_state(state: DetectionState, path: str | os.PathLike[str]) -> None:
    """Serialise a :class:`DetectionState` to one compressed ``.npz``.

    The write is atomic: bytes land in a ``.tmp`` sibling first (fsynced),
    any existing snapshot is rotated to ``.bak``, and the tmp file is
    renamed into place. A crash at any point leaves a loadable snapshot —
    the previous one, its backup, or the new one — never a torn file.
    """
    graph = state.graph
    arrays: dict[str, np.ndarray] = {
        "format_version": np.array([STATE_FORMAT_VERSION], dtype=np.int64),
        "config_json": np.frombuffer(
            json.dumps(state.config, sort_keys=True).encode("utf-8"), dtype=np.uint8
        ),
        "meta_json": np.frombuffer(
            json.dumps(state.meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
        ),
        "graph_sizes": np.array([graph.n_users, graph.n_merchants], dtype=np.int64),
        # storage-only narrowing (GraphStore dtype policy): loaders upcast
        "edge_users": _narrow_index_column(graph.edge_users, graph.n_users),
        "edge_merchants": _narrow_index_column(graph.edge_merchants, graph.n_merchants),
        "user_labels": _narrow_value_column(graph.user_labels),
        "merchant_labels": _narrow_value_column(graph.merchant_labels),
    }
    if graph.edge_weights is not None:
        arrays["edge_weights"] = _narrow_weight_column(graph.edge_weights)
    if state.window is not None:
        if state.edge_ids is None:
            raise StateError("windowed state requires edge_ids alongside window metadata")
        arrays["window_json"] = np.frombuffer(
            json.dumps(state.window, sort_keys=True).encode("utf-8"), dtype=np.uint8
        )
        arrays["edge_ids"] = _narrow_value_column(
            np.asarray(state.edge_ids, dtype=np.int64)
        )
    for name, ragged in (
        ("detected_users", state.detected_users),
        ("detected_merchants", state.detected_merchants),
        ("sample_users", state.sample_users),
        ("sample_merchants", state.sample_merchants),
    ):
        flat, offsets = _pack_ragged(ragged)
        arrays[f"{name}_flat"] = _narrow_value_column(flat)
        arrays[f"{name}_offsets"] = offsets
    checksums = {name: _array_crc(array) for name, array in arrays.items()}
    arrays["checksums_json"] = np.frombuffer(
        json.dumps(checksums, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )

    path = _npz_path(path)
    tmp = path.with_name(path.name + ".tmp")
    backup = state_backup_path(path)
    try:
        with open(tmp, "wb") as handle:
            # np.savez_compressed's container (a zip of .npy members), but
            # deflated at level 1: about 4x faster than its level 6 for
            # about 15% more bytes
            with zipfile.ZipFile(
                handle, "w", zipfile.ZIP_DEFLATED, compresslevel=1
            ) as archive:
                for name, array in arrays.items():
                    with archive.open(f"{name}.npy", "w", force_zip64=True) as member:
                        write_array(member, array, allow_pickle=False)
            handle.flush()
            os.fsync(handle.fileno())
        fault_point("state.write", stage="tmp_written", path=str(path))
        if path.exists():
            os.replace(path, backup)
            _fsync_directory(path.parent)
        fault_point("state.write", stage="backup_done", path=str(path))
        os.replace(tmp, path)
        _fsync_directory(path.parent)
        fault_point("state.write", stage="committed", path=str(path))
    except BaseException:
        # never leave a stray tmp behind on a surfaced failure (a hard
        # crash may — the next save simply overwrites it)
        tmp.unlink(missing_ok=True)
        raise


def _verify_checksums(path: Path, data) -> None:
    try:
        manifest = json.loads(bytes(data["checksums_json"].tobytes()).decode("utf-8"))
    except KeyError:
        raise StateChecksumError(
            f"{path}: v{STATE_FORMAT_VERSION} archive is missing its checksum "
            "manifest — the file is corrupt or was tampered with"
        ) from None
    for name, expected in manifest.items():
        actual = _array_crc(data[name])
        if actual != int(expected):
            raise StateChecksumError(
                f"{path}: checksum mismatch on array {name!r} "
                f"(stored {int(expected):#010x}, computed {actual:#010x}); "
                "the snapshot is corrupt — recover from the .bak backup or re-fit"
            )


def _read_state(path: Path) -> DetectionState:
    with np.load(path) as data:
        version = int(data["format_version"][0])
        if version != STATE_FORMAT_VERSION and version not in _LEGACY_FORMAT_VERSIONS:
            raise StateError(
                f"{path}: detection-state format v{version} is not supported "
                f"(this build reads v{STATE_FORMAT_VERSION} and legacy "
                f"{list(_LEGACY_FORMAT_VERSIONS)})"
            )
        if version >= 2:
            _verify_checksums(path, data)
        config = json.loads(bytes(data["config_json"].tobytes()).decode("utf-8"))
        meta = json.loads(bytes(data["meta_json"].tobytes()).decode("utf-8"))
        graph = BipartiteGraph(
            n_users=int(data["graph_sizes"][0]),
            n_merchants=int(data["graph_sizes"][1]),
            edge_users=data["edge_users"],
            edge_merchants=data["edge_merchants"],
            edge_weights=data["edge_weights"] if "edge_weights" in data else None,
            user_labels=data["user_labels"],
            merchant_labels=data["merchant_labels"],
        )
        window = None
        edge_ids = None
        if "window_json" in data:
            window = json.loads(bytes(data["window_json"].tobytes()).decode("utf-8"))
            if "edge_ids" not in data:
                raise StateChecksumError(
                    f"{path}: windowed archive is missing its edge_ids array"
                )
            edge_ids = data["edge_ids"].astype(np.int64, copy=False)
        ragged = {
            name: _unpack_ragged(data[f"{name}_flat"], data[f"{name}_offsets"])
            for name in (
                "detected_users",
                "detected_merchants",
                "sample_users",
                "sample_merchants",
            )
        }
    counts = {name: len(values) for name, values in ragged.items()}
    if len(set(counts.values())) != 1:
        raise StateChecksumError(
            f"{path}: inconsistent per-sample array counts {counts}"
        )
    return DetectionState(
        config=config, graph=graph, meta=meta, window=window, edge_ids=edge_ids, **ragged
    )


def load_detection_state(path: str | os.PathLike[str]) -> DetectionState:
    """Load a state archive written by :func:`save_detection_state`.

    Any corruption — a zero-byte or truncated file (the classic ENOSPC
    leftovers: ``zipfile.BadZipFile``, ``EOFError``, ``zlib.error``), a
    flipped byte anywhere in the payload (caught by the zip container's
    CRC or the v2 per-array manifest), unreadable JSON — raises
    :class:`~repro.errors.StateChecksumError`; raw decoder exceptions
    never escape. An unsupported format version raises
    :class:`~repro.errors.StateError`. A missing file raises
    ``FileNotFoundError`` (it is not corruption).
    """
    path = _npz_path(path)
    try:
        return _read_state(path)
    except (DetectionError, FileNotFoundError):
        raise
    except Exception as exc:
        raise StateChecksumError(
            f"{path}: state archive is unreadable "
            f"({type(exc).__name__}: {exc}); the snapshot is corrupt or "
            "truncated — recover from the .bak backup or re-fit"
        ) from exc


def load_detection_state_with_recovery(
    path: str | os.PathLike[str],
) -> tuple[DetectionState, str | None]:
    """Load a state archive, falling back to its rolling ``.bak``.

    Returns ``(state, recovered_from)`` where ``recovered_from`` is the
    backup path when the primary was corrupt or missing and the backup
    verified, or ``None`` for a clean primary load. Raises
    ``FileNotFoundError`` when neither file exists and
    :class:`~repro.errors.StateChecksumError` when both exist but neither
    verifies.
    """
    path = _npz_path(path)
    backup = state_backup_path(path)
    try:
        return load_detection_state(path), None
    except FileNotFoundError:
        if not backup.exists():
            raise
        logger.warning(
            "state archive %s is missing; recovering from backup %s", path, backup
        )
        return load_detection_state(backup), str(backup)
    except (StateError, StateChecksumError) as primary_error:
        if not backup.exists():
            raise
        logger.warning(
            "state archive %s failed to load (%s); recovering from backup %s",
            path,
            primary_error,
            backup,
        )
        try:
            return load_detection_state(backup), str(backup)
        except (StateError, StateChecksumError, FileNotFoundError) as backup_error:
            raise StateChecksumError(
                f"{path}: both the snapshot and its backup are unreadable "
                f"(primary: {primary_error}; backup: {backup_error}); "
                "the state cannot be recovered — re-fit from the source data"
            ) from backup_error
