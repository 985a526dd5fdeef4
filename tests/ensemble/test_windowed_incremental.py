"""Windowed incremental detection: bitwise parity with cold window fits.

The windowed :class:`IncrementalEnsemFDet` must stay bit-identical to a
cold :meth:`EnsemFDet.fit_window` on the live window after any mix of
appends, deletion deltas and expiry — across both executor backends (the
process one over a spilled store), and for both sampler families
(stripe-hash, which is id-keyed, and the rest, which fit the live graph).
Also covers the windowed DetectionState v3 save/load round trip and stale
votes after a failed refresh.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np
import pytest

from repro.datasets import uniform_bipartite
from repro.ensemble import (
    EnsemFDet,
    EnsemFDetConfig,
    IncrementalEnsemFDet,
    load_detection_state,
)
from repro.errors import DetectionError
from repro.faults import arm, disarm
from repro.fdet import FdetConfig
from repro.graph import GraphAccumulator, WindowConfig
from repro.sampling import RandomEdgeSampler, StableEdgeSampler


def make_config(**overrides):
    defaults = dict(
        sampler=StableEdgeSampler(0.3, stripe=64),
        n_samples=8,
        fdet=FdetConfig(max_blocks=8),
        executor="serial",
        seed=23,
    )
    defaults.update(overrides)
    return EnsemFDetConfig(**defaults)


@pytest.fixture
def graph():
    return uniform_bipartite(150, 70, 1400, rng=3)


def _stream(detector, graph, n_updates=4, retract_at=2):
    """Drive appends, one deletion delta, and (window permitting) expiry."""
    rng = np.random.default_rng(41)
    for step in range(n_updates):
        users = rng.integers(0, 150, 25)
        merchants = rng.integers(0, 70, 25)
        if step == retract_at:
            # retract two live background pairs alongside the append
            detector.update(
                users,
                merchants,
                remove_users=graph.edge_users[:2],
                remove_merchants=graph.edge_merchants[:2],
                timestamp=float(step + 1),
            )
        else:
            detector.update(users, merchants, timestamp=float(step + 1))


def assert_matches_cold_window_fit(detector, config):
    cold = EnsemFDet(config).fit_window(detector.window())
    assert cold.vote_table.user_votes == detector.vote_table.user_votes
    assert cold.vote_table.merchant_votes == detector.vote_table.merchant_votes
    for threshold in range(1, config.n_samples + 1):
        warm = detector.detect(threshold)
        fresh = cold.detect(threshold)
        assert np.array_equal(warm.user_labels, fresh.user_labels)
        assert np.array_equal(warm.merchant_labels, fresh.merchant_labels)


class TestWindowedParityMatrix:
    @pytest.mark.parametrize(
        "executor,transport",
        [("serial", "local"), ("process", "mmap")],
    )
    def test_update_matches_cold_window_fit(self, graph, executor, transport):
        config = make_config(executor=executor)
        detector = IncrementalEnsemFDet(config, window=WindowConfig(max_batches=3))
        detector.fit(graph, timestamp=0.0)
        _stream(detector, graph)
        # the 3-batch window over 5 batches has really expired something
        assert detector.window().watermark > detector.window().n_live
        assert_matches_cold_window_fit(detector, config)

    def test_horizon_window_matches_cold_fit(self, graph):
        config = make_config()
        detector = IncrementalEnsemFDet(
            config, window=WindowConfig(horizon=2.5)
        )
        detector.fit(graph, timestamp=0.0)
        _stream(detector, graph)
        assert detector.window().watermark > detector.window().n_live
        assert_matches_cold_window_fit(detector, config)

    def test_deletion_only_delta_matches_cold_fit(self, graph):
        config = make_config()
        detector = IncrementalEnsemFDet(config, window=WindowConfig(max_batches=8))
        detector.fit(graph, timestamp=0.0)
        report = detector.update(
            remove_users=graph.edge_users[:5],
            remove_merchants=graph.edge_merchants[:5],
            timestamp=1.0,
        )
        assert report.n_new_edges == 0
        assert report.n_removed_edges == 5
        assert report.n_refreshed > 0
        assert_matches_cold_window_fit(detector, config)

    @pytest.mark.parametrize("with_deletions", [False, True], ids=["append", "retract"])
    def test_out_of_order_timestamp_changes_nothing(self, graph, with_deletions):
        config = make_config()
        detector = IncrementalEnsemFDet(config, window=WindowConfig(horizon=10.0))
        detector.fit(graph, timestamp=0.0)
        detector.update([1, 2], [3, 4], timestamp=5.0)
        before = detector.window()
        deletions = (
            dict(remove_users=graph.edge_users[:20], remove_merchants=graph.edge_merchants[:20])
            if with_deletions
            else {}
        )
        with pytest.raises(DetectionError, match="non-decreasing"):
            detector.update([7], [8], timestamp=2.0, **deletions)
        after = detector.window()
        assert (after.watermark, after.n_live) == (before.watermark, before.n_live)
        assert np.array_equal(after.alive, before.alive)
        assert_matches_cold_window_fit(detector, config)
        # the window still takes the next in-order batch, deletions included
        detector.update([7], [8], timestamp=6.0, **deletions)
        assert detector.window().n_live == before.n_live + 1 - (20 if with_deletions else 0)
        assert_matches_cold_window_fit(detector, config)


def label_votes(detections):
    """Label-keyed vote counters of ``detections``, tallied member by member."""
    users, merchants = Counter(), Counter()
    for detection in detections:
        users.update(detection.result.detected_users().tolist())
        merchants.update(detection.result.detected_merchants().tolist())
    return users, merchants


def votes_of(detector):
    return detector.vote_table.user_votes, detector.vote_table.merchant_votes


class TestStaleMembers:
    def test_failed_refresh_keeps_previous_votes(self, graph, tmp_path):
        config = make_config(sampler=StableEdgeSampler(0.3, stripe=16))
        detector = IncrementalEnsemFDet(config, window=WindowConfig(max_batches=3))
        before = detector.fit(graph, timestamp=0.0)
        rng = np.random.default_rng(12)
        # the first member this update refreshes fails on every retry
        arm("raise:point=member.detect,index=0,attempt=-1,times=-1")
        try:
            report = detector.update(
                rng.integers(0, 150, 30),
                rng.integers(0, 70, 30),
                remove_users=graph.edge_users[:2],
                remove_merchants=graph.edge_merchants[:2],
                timestamp=1.0,
            )
        finally:
            disarm()
        (failure,) = report.failed_members
        stale = failure.index
        assert stale == report.refreshed_samples[0]
        assert report.stale_members == (stale,) == detector.stale_members
        cold = EnsemFDet(config).fit_window(detector.window())
        detections = list(cold.sample_detections)
        detections[stale] = before.sample_detections[stale]
        assert votes_of(detector) == label_votes(detections)

        path = tmp_path / "state.npz"
        detector.save(path)
        restored = IncrementalEnsemFDet.load(path)
        assert restored.stale_members == (stale,)
        assert votes_of(restored) == votes_of(detector)

        # 400 edges over 25 stripes of 16: every member's refresh is due
        users, merchants = rng.integers(0, 150, 400), rng.integers(0, 70, 400)
        for warm in (detector, restored):
            report = warm.update(users, merchants, timestamp=2.0)
            assert stale in report.refreshed_samples
            assert warm.stale_members == ()
            assert_matches_cold_window_fit(warm, config)


class TestSamplerFamilies:
    def test_fit_window_without_stripes_fits_the_live_graph(self, graph):
        """Non-stripe samplers have no id-keyed structure: the window fit
        is exactly a cold fit on the compacted live graph."""
        config = make_config(sampler=RandomEdgeSampler(0.3))
        detector = IncrementalEnsemFDet(make_config(), window=WindowConfig(max_batches=3))
        detector.fit(graph, timestamp=0.0)
        _stream(detector, graph)
        window = detector.window()
        via_window = EnsemFDet(config).fit_window(window)
        via_live = EnsemFDet(config).fit(window.live_graph())
        assert via_window.vote_table.user_votes == via_live.vote_table.user_votes
        assert (
            via_window.vote_table.merchant_votes
            == via_live.vote_table.merchant_votes
        )


class TestWindowWithNoBound:
    """A detector built without a window holds one with no bound."""

    def test_window_accessor_shows_every_edge_live(self, graph):
        config = make_config()
        detector = IncrementalEnsemFDet(config)
        detector.fit(graph)
        assert detector.window_config == WindowConfig()
        window = detector.window()
        assert window.watermark == window.n_live == graph.n_edges
        assert np.array_equal(window.edge_ids, np.arange(graph.n_edges))
        assert_matches_cold_window_fit(detector, config)

    def test_deletions_apply_and_match_a_cold_fit(self, graph):
        config = make_config()
        detector = IncrementalEnsemFDet(config)
        detector.fit(graph)
        report = detector.update(
            remove_users=graph.edge_users[:1],
            remove_merchants=graph.edge_merchants[:1],
        )
        assert (report.n_removed_edges, report.n_expired_edges) == (1, 0)
        assert detector.window().n_live == graph.n_edges - 1
        assert_matches_cold_window_fit(detector, config)

    def test_timestamps_apply_and_expire_nothing(self, graph):
        config = make_config()
        detector = IncrementalEnsemFDet(config)
        detector.fit(graph, timestamp=5.0)
        for step, timestamp in enumerate((6.0, 1e9, 1e9)):
            report = detector.update(np.array([step]), np.array([step]), timestamp=timestamp)
            assert report.n_expired_edges == 0
        assert detector.window().n_live == graph.n_edges + 3
        assert_matches_cold_window_fit(detector, config)
        with pytest.raises(DetectionError, match="non-decreasing"):
            detector.update(np.array([0]), np.array([0]), timestamp=6.0)


class TestFitTimestamps:
    """A seed batch stamped with anything but a finite number is refused."""

    @pytest.mark.parametrize(
        "window",
        [None, WindowConfig(horizon=2.5), WindowConfig(max_batches=3)],
        ids=["no-bound", "horizon", "batches"],
    )
    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf"), "noon"], ids=repr
    )
    def test_bad_fit_timestamp_leaves_the_detector_unfitted(self, graph, window, bad):
        detector = IncrementalEnsemFDet(make_config(), window=window)
        with pytest.raises(DetectionError, match="timestamps must be"):
            detector.fit(graph, timestamp=bad)
        assert not detector.is_fitted
        with pytest.raises(DetectionError, match="fit"):
            detector.window()

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf"), "noon"], ids=repr
    )
    def test_state_with_a_bad_batch_record_is_refused(self, graph, bad):
        detector = IncrementalEnsemFDet(make_config(), window=WindowConfig(horizon=2.5))
        detector.fit(graph, timestamp=3.0)
        state = detector.state()
        state.window["batches"][-1][2] = bad
        with pytest.raises(DetectionError, match="timestamps must be"):
            IncrementalEnsemFDet.from_state(state)

    def test_bad_fit_timestamp_keeps_the_previous_fit(self, graph):
        config = make_config()
        detector = IncrementalEnsemFDet(config, window=WindowConfig(horizon=2.5))
        detector.fit(graph, timestamp=3.0)
        table = detector.vote_table
        with pytest.raises(DetectionError, match="finite"):
            detector.fit(graph, timestamp=float("nan"))
        assert detector.vote_table is table
        # the clock is still the seed's: an append at 1.0 is refused
        with pytest.raises(DetectionError, match="non-decreasing"):
            detector.update([1], [2], timestamp=1.0)
        detector.update([1], [2], timestamp=4.0)
        assert_matches_cold_window_fit(detector, config)


class TestWindowedPersistence:
    def test_v3_state_round_trips_the_window(self, graph, tmp_path):
        config = make_config()
        detector = IncrementalEnsemFDet(config, window=WindowConfig(max_batches=3))
        detector.fit(graph, timestamp=0.0)
        _stream(detector, graph)
        path = tmp_path / "state.npz"
        detector.save(path)

        state = load_detection_state(path)
        assert state.window is not None
        assert state.window["config"]["max_batches"] == 3
        assert state.window["watermark"] == detector.window().watermark
        assert state.edge_ids is not None

        restored = IncrementalEnsemFDet.load(path)
        assert restored.window_config == detector.window_config
        original = detector.window()
        reloaded = restored.window()
        assert reloaded.watermark == original.watermark
        assert reloaded.n_live == original.n_live
        assert restored.vote_table.user_votes == detector.vote_table.user_votes

    def test_reloaded_detector_keeps_bitwise_parity(self, graph, tmp_path):
        config = make_config()
        detector = IncrementalEnsemFDet(config, window=WindowConfig(max_batches=3))
        detector.fit(graph, timestamp=0.0)
        _stream(detector, graph)
        path = tmp_path / "state.npz"
        detector.save(path)
        restored = IncrementalEnsemFDet.load(path)

        rng = np.random.default_rng(77)
        users, merchants = rng.integers(0, 150, 30), rng.integers(0, 70, 30)
        # retract pairs that are still live (the background expired long ago)
        live = detector.window().live_graph()
        remove_users = live.user_labels[live.edge_users[:3]]
        remove_merchants = live.merchant_labels[live.edge_merchants[:3]]
        for det in (detector, restored):
            det.update(
                users,
                merchants,
                remove_users=remove_users,
                remove_merchants=remove_merchants,
                timestamp=9.0,
            )
        assert restored.vote_table.user_votes == detector.vote_table.user_votes
        assert (
            restored.vote_table.merchant_votes
            == detector.vote_table.merchant_votes
        )
        assert_matches_cold_window_fit(restored, config)

    def test_state_without_a_bound_saves_its_window(self, graph, tmp_path):
        """A detector built without a window saves one with no bound, and
        resumes where it left off."""
        config = make_config()
        detector = IncrementalEnsemFDet(config)
        detector.fit(graph)
        _stream(detector, graph)
        path = tmp_path / "state.npz"
        detector.save(path)
        state = load_detection_state(path)
        assert state.window["config"] == WindowConfig().as_dict()
        assert state.window["watermark"] == graph.n_edges + 4 * 25
        # nothing expires, so the newest batch record is all it keeps
        assert state.window["batches"] == [[graph.n_edges + 75, graph.n_edges + 100, 4.0]]
        assert np.array_equal(state.edge_ids, detector.window().edge_ids[detector.window().rows])

        restored = IncrementalEnsemFDet.load(path)
        assert restored.window_config == WindowConfig()
        pair = dict(
            remove_users=graph.edge_users[10:11], remove_merchants=graph.edge_merchants[10:11]
        )
        for det in (detector, restored):
            det.update([3, 4], [5, 6], timestamp=9.0, **pair)
            assert_matches_cold_window_fit(det, config)
        assert restored.vote_table.user_votes == detector.vote_table.user_votes


class TestHistoryCost:
    """An update costs what its delta changes, not what the stream appended before."""

    def test_update_hashes_only_the_window_and_delta_stripes(self, monkeypatch):
        stripe = 1024
        config = make_config(
            sampler=StableEdgeSampler(0.1, stripe=stripe),
            n_samples=40,
            fdet=FdetConfig(max_blocks=4),
        )
        window = WindowConfig(max_batches=3)
        graph = uniform_bipartite(300, 120, 3 * stripe, rng=8)
        # a state whose window starts 65,536 stripes into the id space, as
        # after a long run: its members are a cold fit on that window
        base = 2**26 - 3 * stripe
        ids = base + np.arange(graph.n_edges, dtype=np.int64)
        records = [[base, base + graph.n_edges, 0.0]]
        fitted = IncrementalEnsemFDet(config, window=window)
        fitted.fit(graph)
        state = fitted.state()
        restored = GraphAccumulator.restore_window(
            state.graph, window, edge_ids=ids, watermark=base + graph.n_edges, batches=records
        )
        cold = EnsemFDet(config).fit_window(restored.window())
        assert not cold.failed_members
        detector = IncrementalEnsemFDet.from_state(
            dataclasses.replace(
                state,
                window={
                    "config": window.as_dict(),
                    "watermark": base + graph.n_edges,
                    "batches": records,
                },
                edge_ids=ids,
                detected_users=[d.result.detected_users() for d in cold.sample_detections],
                detected_merchants=[d.result.detected_merchants() for d in cold.sample_detections],
                sample_users=[d.sample_users for d in cold.sample_detections],
                sample_merchants=[d.sample_merchants for d in cold.sample_detections],
            )
        )
        assert_matches_cold_window_fit(detector, config)

        hashed = []
        inclusion = StableEdgeSampler.stripe_inclusion

        def spy(sampler, n_stripes, *args, **kwargs):
            hashed.append(n_stripes)
            return inclusion(sampler, n_stripes, *args, **kwargs)

        monkeypatch.setattr(StableEdgeSampler, "stripe_inclusion", spy)
        rng = np.random.default_rng(9)
        for step in range(1, 5):
            before = detector.window()
            live_before = before.edge_ids[before.alive]
            users, merchants = rng.integers(0, 300, stripe), rng.integers(0, 120, stripe)
            removal = {}
            if step == 2:  # one deletion of a live pair
                live = before.live_graph()
                removal = dict(
                    remove_users=live.user_labels[live.edge_users[-2:]],
                    remove_merchants=live.merchant_labels[live.edge_merchants[-2:]],
                )
            hashed.clear()
            detector.update(users, merchants, timestamp=float(step), **removal)

            after = detector.window()
            live_ids = after.edge_ids[after.alive]
            changed = np.concatenate(
                [
                    np.arange(before.watermark, after.watermark),
                    np.setdiff1d(live_before, live_ids),
                ]
            )
            window_stripes = int(live_ids.max()) // stripe - int(live_ids.min()) // stripe + 1
            delta_stripes = np.unique(changed // stripe).size
            assert 0 < sum(hashed) <= window_stripes + delta_stripes
            assert_matches_cold_window_fit(detector, config)
