"""Legacy state-archive compatibility: every committed fixture keeps loading.

``tests/ensemble/fixtures/state_v<N>.npz`` are real archives written by the
historical format writers (v1: pre-checksum, v2: checksummed but
append-only, v3: windowed but wide-dtype-only). Each must load with the
current build, re-save as the current format, and reload
bitwise-identical — including through the ``.bak`` recovery path. A
detector resumed from one votes as it did when the fixture was written, and
its next update matches a cold fit on its window.

Their configs are format 1, as is ``config_v1_window_tolerance.npz``, saved
with a 0.3 compaction threshold, a 0.25 s retry backoff and ``degrade=False``
— settings that are constants since config format 2 and are ignored on
load. ``config_v1_density_ratio.npz`` was saved with FDET's density-ratio
stop at 0.3, which no detector runs any more, so it is refused.
"""

from __future__ import annotations

import glob
import hashlib
import os
import shutil

import numpy as np
import pytest

from repro.ensemble import (
    EnsemFDet,
    IncrementalEnsemFDet,
    load_detection_state,
    load_detection_state_with_recovery,
    save_detection_state,
    state_backup_path,
)
from repro.ensemble.results import STATE_FORMAT_VERSION, _LEGACY_FORMAT_VERSIONS
from repro.errors import DetectionError, StateError
from repro.graph import WindowConfig
from repro.parallel import FaultTolerance

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")
FIXTURES = sorted(glob.glob(os.path.join(FIXTURE_DIR, "state_v*.npz")))


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
def test_legacy_fixture_rebuilds_a_live_detector(fixture, tmp_path):
    detector = IncrementalEnsemFDet.load(fixture)
    if _fixture_version(fixture) < 3:
        # saved without a window: resumed as one with no bound over ids 0..|E|-1
        assert detector.window_config == WindowConfig()
        window = detector.window()
        assert window.watermark == window.n_live == detector.graph.n_edges
        assert np.array_equal(window.edge_ids, np.arange(detector.graph.n_edges))
    else:
        assert detector.window_config.bounded
    assert_matches_cold_window_fit(detector)
    # it saves back as the current format, window arrays included
    detector.save(tmp_path / "resaved.npz")
    with np.load(tmp_path / "resaved.npz") as data:
        assert int(data["format_version"][0]) == STATE_FORMAT_VERSION
        assert {"window_json", "edge_ids"} <= set(data.files)
    assert_resaves_as_config_format_2(detector, tmp_path)


def assert_resaves_as_config_format_2(detector, tmp_path) -> None:
    """Saved now, the state holds config format 2 and reloads to the same table."""
    detector.save(tmp_path / "resaved.npz")
    saved = load_detection_state(tmp_path / "resaved.npz")
    assert saved.config["format"] == 2
    assert "min_density_ratio" not in saved.config["fdet"]
    assert set(saved.config["ensemble"]["tolerance"]) == {
        "member_timeout", "max_retries", "min_quorum"
    }
    assert set(saved.window["config"]) == {"max_batches", "horizon"}
    resumed = IncrementalEnsemFDet.load(tmp_path / "resaved.npz")
    assert resumed.window_config == detector.window_config
    assert resumed.state().config == saved.config
    assert table_fingerprint(resumed.vote_table) == table_fingerprint(detector.vote_table)


def table_fingerprint(table) -> str:
    """A digest of every vote and appearance count of ``table``."""
    digest = hashlib.sha256()
    for votes in (
        table.user_votes,
        table.merchant_votes,
        table.user_appearances,
        table.merchant_appearances,
    ):
        if votes is not None:
            for array in votes.voted():
                digest.update(np.asarray(array, dtype="<i8").tobytes())
        digest.update(b"|")
    return digest.hexdigest()[:16]


def assert_matches_cold_window_fit(detector) -> None:
    cold = EnsemFDet(detector.config).fit_window(detector.window())
    assert cold.vote_table.user_votes == detector.vote_table.user_votes
    assert cold.vote_table.merchant_votes == detector.vote_table.merchant_votes
    if detector.config.track_appearances:
        assert cold.vote_table.user_appearances == detector.vote_table.user_appearances
        assert cold.vote_table.merchant_appearances == detector.vote_table.merchant_appearances


#: each fixture's vote table as the state formats' writer left it, recorded
#: before detectors without a window kept their graph in one
RESUMED_FINGERPRINTS = {
    "state_v1.npz": "5493088f5edb7e5f",
    "state_v2.npz": "5493088f5edb7e5f",
    "state_v3.npz": "e31ac32ab64d4bf9",
}


@pytest.mark.parametrize("fixture", FIXTURES, ids=os.path.basename)
def test_legacy_fixture_resumes_and_updates_like_a_cold_fit(fixture):
    detector = IncrementalEnsemFDet.load(fixture)
    assert table_fingerprint(detector.vote_table) == RESUMED_FINGERPRINTS[
        os.path.basename(fixture)
    ]
    assert_append_and_delete_matches_a_cold_fit(detector)


def assert_append_and_delete_matches_a_cold_fit(detector) -> None:
    """One update of new pairs (and an unseen user) with two live pairs
    retracted leaves the detector equal to a cold fit on its window."""
    window = detector.window()
    live = window.live_graph()
    rng = np.random.default_rng(5)
    users = live.user_labels[rng.integers(0, live.n_users, 40)]
    merchants = live.merchant_labels[rng.integers(0, live.n_merchants, 40)]
    newest = detector.state().window["batches"][-1][2]
    report = detector.update(
        np.append(users, 10**9),  # and one unseen user
        np.append(merchants, live.merchant_labels[0]),
        remove_users=live.user_labels[live.edge_users[:2]],
        remove_merchants=live.merchant_labels[live.edge_merchants[:2]],
        timestamp=newest + 1.0,
    )
    assert (report.n_new_edges, report.n_removed_edges) == (41, 2)
    assert report.n_refreshed > 0
    assert_matches_cold_window_fit(detector)


def test_format1_config_with_retired_settings_resumes_like_a_cold_fit(tmp_path):
    """Compaction threshold, retry backoff and ``degrade`` were stored;
    they never changed a vote, so the archive loads without them."""
    detector = IncrementalEnsemFDet.load(os.path.join(FIXTURE_DIR, "config_v1_window_tolerance.npz"))
    # the table the archive's writer left, recorded at that commit
    assert table_fingerprint(detector.vote_table) == "5998240e292876e7"
    assert detector.window_config == WindowConfig(max_batches=3)
    assert detector.config.tolerance == FaultTolerance(max_retries=2)
    assert_resaves_as_config_format_2(detector, tmp_path)
    assert_append_and_delete_matches_a_cold_fit(detector)


def test_format1_config_with_a_density_ratio_stop_is_refused():
    with pytest.raises(DetectionError, match="min_density_ratio=0.3"):
        IncrementalEnsemFDet.load(os.path.join(FIXTURE_DIR, "config_v1_density_ratio.npz"))


@pytest.mark.parametrize(
    "fixture", [f for f in FIXTURES if _fixture_version(f) < 3], ids=os.path.basename
)
def test_state_saved_without_a_window_grows_like_a_cold_fit(fixture):
    """An append-only delta keeps the ids positional: a cold fit of the
    grown graph over positional stripes gives the same table."""
    detector = IncrementalEnsemFDet.load(fixture)
    graph = detector.graph
    rng = np.random.default_rng(9)
    report = detector.update(
        graph.user_labels[rng.integers(0, graph.n_users, 60)],
        graph.merchant_labels[rng.integers(0, graph.n_merchants, 60)],
    )
    assert report.n_refreshed > 0
    cold = EnsemFDet(detector.config).fit(detector.graph)
    assert table_fingerprint(cold.vote_table) == table_fingerprint(detector.vote_table)


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
