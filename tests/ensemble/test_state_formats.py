"""Legacy state-archive compatibility: every committed fixture keeps loading.

``tests/ensemble/fixtures/state_v<N>.npz`` are real archives written by the
historical format writers (v1: pre-checksum, v2: checksummed but
append-only, v3: windowed but wide-dtype-only). Each must load with the
current build, re-save as the current format, and reload
bitwise-identical — including through the ``.bak`` recovery path.
"""

from __future__ import annotations

import glob
import os
import shutil

import numpy as np
import pytest

from repro.ensemble import (
    IncrementalEnsemFDet,
    load_detection_state,
    load_detection_state_with_recovery,
    save_detection_state,
    state_backup_path,
)
from repro.ensemble.results import STATE_FORMAT_VERSION, _LEGACY_FORMAT_VERSIONS
from repro.errors import StateError

FIXTURES = sorted(
    glob.glob(os.path.join(os.path.dirname(__file__), "fixtures", "state_v*.npz"))
)


def _assert_states_identical(left, right) -> None:
    assert left.config == right.config
    assert left.meta == right.meta
    assert left.window == right.window
    lg, rg = left.graph, right.graph
    assert (lg.n_users, lg.n_merchants) == (rg.n_users, rg.n_merchants)
    for name in ("edge_users", "edge_merchants", "user_labels", "merchant_labels"):
        la, ra = getattr(lg, name), getattr(rg, name)
        assert la.dtype == ra.dtype and np.array_equal(la, ra)
    if lg.edge_weights is None:
        assert rg.edge_weights is None
    else:
        assert np.array_equal(lg.edge_weights, rg.edge_weights)
    if left.edge_ids is None:
        assert right.edge_ids is None
    else:
        assert np.array_equal(left.edge_ids, right.edge_ids)
    for name in ("detected_users", "detected_merchants", "sample_users", "sample_merchants"):
        lr, rr = getattr(left, name), getattr(right, name)
        assert len(lr) == len(rr)
        for la, ra in zip(lr, rr):
            assert la.dtype == ra.dtype and np.array_equal(la, ra)


def test_fixture_inventory_covers_every_legacy_version():
    versions = {
        int(os.path.basename(p)[len("state_v") : -len(".npz")]) for p in FIXTURES
    }
    assert set(_LEGACY_FORMAT_VERSIONS) <= versions, (
        f"missing committed fixture for legacy formats "
        f"{set(_LEGACY_FORMAT_VERSIONS) - versions}"
    )


def _fixture_version(path: str) -> int:
    return int(os.path.basename(path)[len("state_v") : -len(".npz")])


@pytest.mark.parametrize("fixture", FIXTURES, ids=os.path.basename)
def test_legacy_fixture_loads_and_round_trips_as_current(fixture, tmp_path):
    state = load_detection_state(fixture)
    assert state.n_samples > 0
    if _fixture_version(fixture) < 3:  # window metadata arrived in v3
        assert state.window is None and state.edge_ids is None
    else:
        assert state.window is not None and state.edge_ids is not None

    target = tmp_path / "resaved.npz"
    save_detection_state(state, target)
    with np.load(target) as data:
        assert int(data["format_version"][0]) == STATE_FORMAT_VERSION
    _assert_states_identical(state, load_detection_state(target))


@pytest.mark.parametrize("fixture", FIXTURES, ids=os.path.basename)
def test_legacy_fixture_recovers_from_backup(fixture, tmp_path):
    state = load_detection_state(fixture)
    target = tmp_path / "state.npz"
    save_detection_state(state, target)
    save_detection_state(state, target)  # rotates the first save to .bak
    assert state_backup_path(target).exists()

    # corrupt the primary: recovery must fall back to the backup, bitwise
    target.write_bytes(b"\x00" * 128)
    recovered, recovered_from = load_detection_state_with_recovery(target)
    assert recovered_from == str(state_backup_path(target))
    _assert_states_identical(state, recovered)


@pytest.mark.parametrize("fixture", FIXTURES, ids=os.path.basename)
def test_legacy_fixture_rebuilds_a_live_detector(fixture):
    detector = IncrementalEnsemFDet.load(fixture)
    if _fixture_version(fixture) < 3:
        assert detector.window_config is None
    else:
        assert detector.window_config is not None
    # the rebuilt detector scores without error and stays consistent
    result = detector.detect(threshold=2)
    assert result.n_users >= 0


def test_retired_executor_knobs_load_as_serial():
    """A state naming the thread backend and the shared_memory, shards and
    mmap keys loads as a serial detector and saves without those keys."""
    state = load_detection_state(FIXTURES[-1])
    state.config["ensemble"].update(
        executor="thread", shared_memory=False, shards=4, mmap=True
    )
    detector = IncrementalEnsemFDet.from_state(state)
    assert detector.config.executor == "serial"
    reference = IncrementalEnsemFDet.load(FIXTURES[-1])
    assert detector.vote_table.user_votes == reference.vote_table.user_votes
    saved = detector.state().config["ensemble"]
    assert saved["executor"] == "serial"
    assert not {"shared_memory", "shards", "mmap"} & set(saved)


def test_unsupported_future_version_is_rejected(tmp_path):
    source = FIXTURES[-1]
    target = tmp_path / "future.npz"
    shutil.copy(source, target)
    with np.load(target) as data:
        arrays = {name: data[name] for name in data.files}
    arrays["format_version"] = np.array([STATE_FORMAT_VERSION + 1], dtype=np.int64)
    with open(target, "wb") as fh:
        np.savez_compressed(fh, **arrays)
    with pytest.raises(StateError, match="not supported"):
        load_detection_state(target)
