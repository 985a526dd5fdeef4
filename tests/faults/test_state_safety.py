"""Crash-safe detection state: atomic commit, checksums, backup recovery."""

from __future__ import annotations

import json
import struct
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import uniform_bipartite
from repro.ensemble import (
    DetectionState,
    IncrementalEnsemFDet,
    load_detection_state,
    load_detection_state_with_recovery,
    save_detection_state,
    state_backup_path,
)
from repro.ensemble.results import STATE_FORMAT_VERSION
from repro.errors import InjectedFault, StateChecksumError, StateError
from repro.faults import arm, disarm
from repro.fdet import FdetConfig
from repro.sampling import StableEdgeSampler


@pytest.fixture(autouse=True)
def _clean_faults():
    disarm()
    yield
    disarm()


def _make_state(seed: int = 0, rows: int = 120) -> DetectionState:
    graph = uniform_bipartite(30, 15, 120, rng=seed)
    rng = np.random.default_rng(seed)
    per_sample = lambda high, size: [  # noqa: E731 - tiny local builder
        np.sort(rng.choice(high, size=size, replace=False)).astype(np.int64)
        for _ in range(4)
    ]
    return DetectionState(
        config={"n_samples": 4, "seed": seed},
        graph=graph,
        detected_users=per_sample(30, 5),
        detected_merchants=per_sample(15, 3),
        sample_users=per_sample(30, 12),
        sample_merchants=per_sample(15, 7),
        meta={"watch_rows": rows},
    )


def _states_equal(a: DetectionState, b: DetectionState) -> bool:
    if a.config != b.config or a.meta != b.meta:
        return False
    if a.graph.n_users != b.graph.n_users or a.graph.n_merchants != b.graph.n_merchants:
        return False
    if not np.array_equal(a.graph.edge_users, b.graph.edge_users):
        return False
    if not np.array_equal(a.graph.edge_merchants, b.graph.edge_merchants):
        return False
    for name in ("detected_users", "detected_merchants", "sample_users", "sample_merchants"):
        left, right = getattr(a, name), getattr(b, name)
        if len(left) != len(right):
            return False
        if not all(np.array_equal(x, y) for x, y in zip(left, right)):
            return False
    return True


def _member_data(path, name: str | None = None) -> tuple[str, int, int]:
    """A member of a state archive (the largest compressed one when ``name``
    is None) and the span of file offsets its compressed data occupies."""
    with zipfile.ZipFile(path) as archive:
        infos = archive.infolist()
    info = (
        max(infos, key=lambda i: i.compress_size)
        if name is None
        else next(i for i in infos if i.filename == name)
    )
    with open(path, "rb") as fh:
        fh.seek(info.header_offset)
        local_header = fh.read(30)
    name_length, extra_length = struct.unpack("<HH", local_header[26:30])
    start = info.header_offset + 30 + name_length + extra_length
    return info.filename, start, start + info.compress_size


def _flip_byte(path, offset: int) -> None:
    data = bytearray(path.read_bytes())
    data[offset % len(data)] ^= 0xFF
    path.write_bytes(bytes(data))


class TestAtomicCommit:
    def test_archive_is_an_npz_of_deflated_members(self, tmp_path):
        """The archive is what ``np.savez_compressed`` writes (a zip of one
        ``.npy`` member per array, each DEFLATE-compressed) and loads equal."""
        state = _make_state()
        target = tmp_path / "state.npz"
        save_detection_state(state, target)
        with zipfile.ZipFile(target) as archive, np.load(target) as data:
            infos = archive.infolist()
            manifest = json.loads(bytes(data["checksums_json"].tobytes()))
        assert sorted(info.filename for info in infos) == sorted(
            f"{name}.npy" for name in [*manifest, "checksums_json"]
        )
        assert {info.compress_type for info in infos} == {zipfile.ZIP_DEFLATED}
        assert _states_equal(load_detection_state(target), state)

    def test_roundtrip_and_version(self, tmp_path):
        state = _make_state()
        target = tmp_path / "state.npz"
        save_detection_state(state, target)
        assert _states_equal(load_detection_state(target), state)
        with np.load(target) as data:
            assert int(data["format_version"][0]) == STATE_FORMAT_VERSION
            manifest = json.loads(bytes(data["checksums_json"].tobytes()))
            assert "edge_users" in manifest

    def test_second_save_rotates_backup(self, tmp_path):
        first, second = _make_state(seed=1), _make_state(seed=2)
        target = tmp_path / "state.npz"
        save_detection_state(first, target)
        save_detection_state(second, target)
        assert _states_equal(load_detection_state(target), second)
        assert _states_equal(load_detection_state(state_backup_path(target)), first)
        assert not (tmp_path / "state.npz.tmp").exists()

    def test_crash_before_rotation_keeps_old_primary(self, tmp_path):
        first = _make_state(seed=1)
        target = tmp_path / "state.npz"
        save_detection_state(first, target)
        arm("raise:point=state.write,stage=tmp_written")
        with pytest.raises(InjectedFault):
            save_detection_state(_make_state(seed=2), target)
        assert _states_equal(load_detection_state(target), first)
        assert not (tmp_path / "state.npz.tmp").exists()

    def test_crash_after_rotation_recovers_from_backup(self, tmp_path):
        first = _make_state(seed=1)
        target = tmp_path / "state.npz"
        save_detection_state(first, target)
        arm("raise:point=state.write,stage=backup_done")
        with pytest.raises(InjectedFault):
            save_detection_state(_make_state(seed=2), target)
        # the primary was rotated away and the new file never committed
        with pytest.raises(FileNotFoundError):
            load_detection_state(target)
        state, recovered_from = load_detection_state_with_recovery(target)
        assert recovered_from == str(state_backup_path(target))
        assert _states_equal(state, first)


class TestCorruptionDetection:
    def test_corrupt_committed_snapshot_never_loads_silently(self, tmp_path):
        first, second = _make_state(seed=1), _make_state(seed=2)
        target = tmp_path / "state.npz"
        save_detection_state(first, target)
        # flip the middle byte of the largest member's compressed data, where
        # a flip must trip the container CRC (zip header padding would not);
        # the layout is read off a save of the same state to another path
        save_detection_state(second, tmp_path / "layout.npz")
        name, start, end = _member_data(tmp_path / "layout.npz")
        offset = (start + end) // 2
        arm(f"corrupt:point=state.write,stage=committed,offset={offset}")
        save_detection_state(second, target)  # corrupts after the commit
        _, start, end = _member_data(target, name)
        assert start <= offset < end
        with pytest.raises(StateChecksumError):
            load_detection_state(target)
        state, recovered_from = load_detection_state_with_recovery(target)
        assert recovered_from == str(state_backup_path(target))
        assert _states_equal(state, first)

    def test_both_copies_corrupt_raises(self, tmp_path):
        target = tmp_path / "state.npz"
        save_detection_state(_make_state(seed=1), target)
        save_detection_state(_make_state(seed=2), target)
        _flip_byte(target, 300)
        _flip_byte(state_backup_path(target), 300)
        with pytest.raises(StateChecksumError, match="cannot be recovered"):
            load_detection_state_with_recovery(target)

    def test_missing_everything_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_detection_state_with_recovery(tmp_path / "absent.npz")

    def test_truncated_archive_is_checksum_error(self, tmp_path):
        target = tmp_path / "state.npz"
        save_detection_state(_make_state(), target)
        target.write_bytes(target.read_bytes()[: target.stat().st_size // 2])
        with pytest.raises(StateChecksumError, match="unreadable|checksum"):
            load_detection_state(target)

    @settings(max_examples=60, deadline=None)
    @given(offset=st.integers(min_value=0, max_value=1 << 20))
    def test_any_single_byte_flip_is_detected_or_benign(self, tmp_path_factory, offset):
        # hypothesis + function-scoped tmp_path don't mix; build our own dir
        workdir = tmp_path_factory.mktemp("flip")
        reference = _make_state(seed=7)
        target = workdir / "state.npz"
        save_detection_state(reference, target)
        _flip_byte(target, offset)
        # a flip must either surface as a typed checksum failure or hit one
        # of the few bytes (zip timestamps/padding) that cannot change the
        # decoded state — a silently *different* table is the one bad outcome
        try:
            loaded = load_detection_state(target)
        except StateChecksumError:
            return
        assert _states_equal(loaded, reference)


class TestDiskFullLeftovers:
    """Regression: ENOSPC-shaped files must fail typed, then recover.

    A disk filling up mid-write (or a kill between open and write) leaves
    a zero-byte, truncated, or garbage ``.npz``. None of the underlying
    decoders' exceptions (``zipfile.BadZipFile``, ``EOFError``,
    ``zlib.error``) may escape raw — every shape surfaces as
    :class:`StateChecksumError`, and the recovery ladder must still fall
    back to the ``.bak`` snapshot exactly as for a flipped byte.
    """

    def _primary_with_backup(self, tmp_path):
        state = _make_state(seed=11)
        target = tmp_path / "state.npz"
        save_detection_state(state, target)
        save_detection_state(state, target)  # rotates a valid .bak
        return state, target

    def _spoil(self, target, shape: str) -> None:
        if shape == "zero_byte":
            target.write_bytes(b"")
        elif shape == "header_only":
            # the zip magic survives but everything else is gone
            target.write_bytes(target.read_bytes()[:4])
        elif shape == "half":
            target.write_bytes(target.read_bytes()[: target.stat().st_size // 2])
        elif shape == "no_central_directory":
            # valid local headers, truncated before the central directory:
            # the shape a torn rename or lost final flush leaves behind
            target.write_bytes(target.read_bytes()[:-64])
        elif shape == "garbage":
            target.write_bytes(b"\x00" * 2048)
        else:  # pragma: no cover - guard against typos in parametrize
            raise AssertionError(shape)

    SHAPES = ("zero_byte", "header_only", "half", "no_central_directory", "garbage")

    @pytest.mark.parametrize("shape", SHAPES)
    def test_spoiled_primary_is_typed_checksum_error(self, tmp_path, shape):
        state = _make_state(seed=11)
        target = tmp_path / "state.npz"
        save_detection_state(state, target)
        self._spoil(target, shape)
        with pytest.raises(StateChecksumError, match="unreadable|checksum"):
            load_detection_state(target)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_spoiled_primary_recovers_from_backup(self, tmp_path, shape, caplog):
        state, target = self._primary_with_backup(tmp_path)
        self._spoil(target, shape)
        with caplog.at_level("WARNING", logger="repro.state"):
            loaded, recovered_from = load_detection_state_with_recovery(target)
        assert recovered_from == str(state_backup_path(target))
        assert _states_equal(loaded, state)
        assert any("recovering from backup" in rec.message for rec in caplog.records)

    def test_spoiled_primary_and_backup_raise_together(self, tmp_path):
        _, target = self._primary_with_backup(tmp_path)
        self._spoil(target, "zero_byte")
        self._spoil(state_backup_path(target), "half")
        with pytest.raises(StateChecksumError, match="cannot be recovered"):
            load_detection_state_with_recovery(target)

    def test_missing_primary_with_backup_warns_and_recovers(self, tmp_path, caplog):
        state, target = self._primary_with_backup(tmp_path)
        target.unlink()
        with caplog.at_level("WARNING", logger="repro.state"):
            loaded, recovered_from = load_detection_state_with_recovery(target)
        assert recovered_from == str(state_backup_path(target))
        assert _states_equal(loaded, state)
        assert any("is missing" in rec.message for rec in caplog.records)


class TestFormatVersions:
    def _rewrite(self, target, version: int, drop_checksums: bool) -> None:
        with np.load(target) as data:
            arrays = {name: data[name] for name in data.files}
        arrays["format_version"] = np.array([version], dtype=np.int64)
        if drop_checksums:
            arrays.pop("checksums_json", None)
        with open(target, "wb") as handle:
            np.savez_compressed(handle, **arrays)

    def test_v1_legacy_archive_still_loads(self, tmp_path):
        state = _make_state()
        target = tmp_path / "state.npz"
        save_detection_state(state, target)
        self._rewrite(target, version=1, drop_checksums=True)
        assert _states_equal(load_detection_state(target), state)

    def test_future_version_is_a_state_error(self, tmp_path):
        target = tmp_path / "state.npz"
        save_detection_state(_make_state(), target)
        self._rewrite(target, version=99, drop_checksums=False)
        with pytest.raises(StateError, match="v99"):
            load_detection_state(target)

    def test_v2_without_manifest_is_corrupt(self, tmp_path):
        target = tmp_path / "state.npz"
        save_detection_state(_make_state(), target)
        self._rewrite(target, version=STATE_FORMAT_VERSION, drop_checksums=True)
        with pytest.raises(StateChecksumError, match="manifest"):
            load_detection_state(target)


class TestDetectorRecovery:
    def test_incremental_load_with_recovery(self, tmp_path):
        graph = uniform_bipartite(60, 30, 300, rng=0)
        from repro.ensemble import EnsemFDetConfig

        config = EnsemFDetConfig(
            sampler=StableEdgeSampler(0.4, stripe=64),
            n_samples=6,
            fdet=FdetConfig(max_blocks=6),
            seed=3,
            track_appearances=True,
        )
        detector = IncrementalEnsemFDet(config)
        detector.fit(graph)
        target = tmp_path / "state.npz"
        detector.save(target)
        detector.save(target)  # second save creates the rolling backup
        _flip_byte(target, 400)
        recovered, recovered_from = IncrementalEnsemFDet.load_with_recovery(target)
        assert recovered_from == str(state_backup_path(target))
        assert dict(recovered.vote_table.user_votes) == dict(
            detector.vote_table.user_votes
        )
        assert dict(recovered.vote_table.merchant_votes) == dict(
            detector.vote_table.merchant_votes
        )
