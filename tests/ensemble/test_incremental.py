"""IncrementalEnsemFDet: update-equals-cold-refit, stale members, persistence."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.datasets import uniform_bipartite
from repro.ensemble import (
    EnsemFDet,
    EnsemFDetConfig,
    IncrementalEnsemFDet,
    load_detection_state,
    normalized_majority_vote,
)
from repro.errors import DetectionError, InjectedFault, QuorumError
from repro.faults import arm, disarm
from repro.fdet import FdetConfig
from repro.parallel import FaultTolerance
from repro.sampling import RandomEdgeSampler, StableEdgeSampler


def make_config(**overrides):
    defaults = dict(
        sampler=StableEdgeSampler(0.2, stripe=128),
        n_samples=12,
        fdet=FdetConfig(max_blocks=8),
        executor="serial",
        seed=17,
    )
    defaults.update(overrides)
    return EnsemFDetConfig(**defaults)


@pytest.fixture
def graph():
    return uniform_bipartite(250, 120, 2400, rng=1)


@pytest.fixture
def delta(graph):
    rng = np.random.default_rng(8)
    n = graph.n_edges // 100  # 1% delta
    return rng.integers(0, 250, n), rng.integers(0, 120, n)


def assert_matches_cold_refit(detector, config):
    cold = EnsemFDet(config).fit(detector.graph)
    assert cold.vote_table.user_votes == detector.vote_table.user_votes
    assert cold.vote_table.merchant_votes == detector.vote_table.merchant_votes
    for threshold in range(1, config.n_samples + 1):
        warm = detector.detect(threshold)
        fresh = cold.detect(threshold)
        assert np.array_equal(warm.user_labels, fresh.user_labels)
        assert np.array_equal(warm.merchant_labels, fresh.merchant_labels)


class TestUpdateIdentity:
    def test_one_percent_delta_matches_cold_refit(self, graph, delta):
        config = make_config()
        detector = IncrementalEnsemFDet(config)
        detector.fit(graph)
        report = detector.update(*delta)
        assert report.n_new_edges == delta[0].size
        assert 0 < report.n_refreshed < config.n_samples
        assert_matches_cold_refit(detector, config)

    def test_sequential_updates_match(self, graph, delta):
        config = make_config()
        detector = IncrementalEnsemFDet(config)
        detector.fit(graph)
        users, merchants = delta
        half = users.size // 2
        detector.update(users[:half], merchants[:half])
        detector.update(users[half:], merchants[half:])
        assert_matches_cold_refit(detector, config)

    def test_delta_with_new_nodes(self, graph):
        config = make_config()
        detector = IncrementalEnsemFDet(config)
        detector.fit(graph)
        detector.update([10**9, 10**9 + 1], [10**6, 3])
        assert detector.graph.n_users == graph.n_users + 2
        assert_matches_cold_refit(detector, config)

    def test_weighted_delta_onto_unweighted_graph(self, graph, delta):
        config = make_config()
        detector = IncrementalEnsemFDet(config)
        detector.fit(graph)
        users, merchants = delta
        detector.update(users, merchants, weights=np.full(users.size, 2.5))
        assert detector.graph.is_weighted
        assert_matches_cold_refit(detector, config)

    def test_empty_delta_is_a_noop(self, graph):
        config = make_config()
        detector = IncrementalEnsemFDet(config)
        detector.fit(graph)
        before = detector.detect(3)
        report = detector.update([], [])
        assert report.n_refreshed == 0 and report.n_new_edges == 0
        after = detector.detect(3)
        assert np.array_equal(before.user_labels, after.user_labels)

    def test_appearance_tracking_stays_consistent(self, graph, delta):
        config = make_config(track_appearances=True)
        detector = IncrementalEnsemFDet(config)
        detector.fit(graph)
        detector.update(*delta)
        cold = EnsemFDet(config).fit(detector.graph)
        warm = normalized_majority_vote(detector.vote_table, 0.5)
        fresh = normalized_majority_vote(cold.vote_table, 0.5)
        assert np.array_equal(warm.user_labels, fresh.user_labels)
        assert np.array_equal(warm.merchant_labels, fresh.merchant_labels)


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
    """A member whose detection failed for good serves stale votes until an
    update refreshes it; its stale state survives save/load."""

    def wide_delta(self, seed):
        # 400 edges over 25 stripes of 16: every member's refresh is due
        rng = np.random.default_rng(seed)
        return rng.integers(0, 250, 400), rng.integers(0, 120, 400)

    def config(self, **overrides):
        return make_config(sampler=StableEdgeSampler(0.2, stripe=16), n_samples=6, **overrides)

    def test_member_lost_in_cold_fit_is_stale_until_refreshed(self, graph):
        config = self.config(tolerance=FaultTolerance(max_retries=0, min_quorum=0.5))
        detector = IncrementalEnsemFDet(config)
        arm("raise:point=member.detect,index=2,attempt=-1,times=1")
        try:
            result = detector.fit(graph)
        finally:
            disarm()
        assert [failure.index for failure in result.failed_members] == [2]
        assert detector.stale_members == (2,)
        assert votes_of(detector) == (
            result.vote_table.user_votes,
            result.vote_table.merchant_votes,
        )

        restored = IncrementalEnsemFDet.from_state(detector.state())
        assert restored.stale_members == (2,)
        assert votes_of(restored) == votes_of(detector)

        for warm in (detector, restored):
            report = warm.update(*self.wide_delta(5))
            assert report.refreshed_samples == tuple(range(config.n_samples))
            assert report.stale_members == () == warm.stale_members
            assert_matches_cold_refit(warm, config)

    def test_failed_refresh_keeps_previous_votes(self, graph, tmp_path):
        config = self.config()
        detector = IncrementalEnsemFDet(config)
        before = detector.fit(graph)
        rng = np.random.default_rng(3)
        # the first member this update refreshes fails on every retry
        arm("raise:point=member.detect,index=0,attempt=-1,times=-1")
        try:
            report = detector.update(rng.integers(0, 250, 40), rng.integers(0, 120, 40))
        finally:
            disarm()
        (failure,) = report.failed_members
        stale = failure.index
        assert stale == report.refreshed_samples[0]
        assert report.stale_members == (stale,) == detector.stale_members
        detections = list(EnsemFDet(config).fit(detector.graph).sample_detections)
        detections[stale] = before.sample_detections[stale]
        assert votes_of(detector) == label_votes(detections)

        path = tmp_path / "state.npz"
        detector.save(path)
        restored = IncrementalEnsemFDet.load(path)
        assert restored.stale_members == (stale,)
        assert votes_of(restored) == votes_of(detector)

        for warm in (detector, restored):
            report = warm.update(*self.wide_delta(6))
            assert stale in report.refreshed_samples
            assert warm.stale_members == ()
            assert_matches_cold_refit(warm, config)

    def test_update_below_quorum_keeps_the_delta(self, graph):
        config = self.config(tolerance=FaultTolerance(max_retries=0, min_quorum=0.99))
        detector = IncrementalEnsemFDet(config)
        detector.fit(graph)
        users, merchants = self.wide_delta(7)
        arm("raise:point=member.detect,index=0,attempt=-1,times=-1")
        try:
            with pytest.raises(QuorumError):
                detector.update(users, merchants)
        finally:
            disarm()
        # the other refreshes landed on the grown graph; member 0 is stale
        assert detector.graph.n_edges == graph.n_edges + users.size
        assert detector.stale_members == (0,)
        detector.update(*self.wide_delta(8))
        assert detector.stale_members == ()
        assert_matches_cold_refit(detector, config)

    def test_full_quorum_failure_keeps_the_delta_and_marks_due_members_stale(self, graph):
        config = self.config(tolerance=FaultTolerance(max_retries=0, min_quorum=1.0))
        detector = IncrementalEnsemFDet(config)
        detector.fit(graph)
        table = detector.vote_table
        users, merchants = self.wide_delta(9)
        arm("raise:point=member.detect,index=0,attempt=-1,times=-1")
        try:
            with pytest.raises(InjectedFault):
                detector.update(users, merchants)
        finally:
            disarm()
        # the delta stays in the window; no refresh was kept, so every member
        # the delta was due to refresh (here all of them) votes stale
        assert detector.window().n_live == graph.n_edges + users.size
        assert detector.stale_members == tuple(range(config.n_samples))
        assert detector.vote_table is table
        report = detector.update(*self.wide_delta(10))
        assert report.refreshed_samples == tuple(range(config.n_samples))
        assert detector.stale_members == ()
        assert_matches_cold_refit(detector, config)


class TestUpdateReport:
    def test_refresh_fraction_is_small_for_local_delta(self, graph, delta):
        # one stripe spans the whole delta -> only ≈ S·N members refresh
        config = make_config(sampler=StableEdgeSampler(0.2, stripe=4096))
        detector = IncrementalEnsemFDet(config)
        detector.fit(graph)
        report = detector.update(*delta)
        assert report.n_refreshed <= config.n_samples // 2
        assert report.total_seconds >= 0


class TestBatchRecords:
    def test_many_updates_keep_one_batch_record(self, graph):
        """Nothing expires from a window with no bound, so the state it
        saves after every update does not grow with the update count."""
        config = make_config()
        detector = IncrementalEnsemFDet(config)
        detector.fit(graph)
        rng = np.random.default_rng(4)
        for _ in range(40):
            detector.update(rng.integers(0, 250, 3), rng.integers(0, 120, 3))
            assert len(detector.state().window["batches"]) == 1
        stop = graph.n_edges + 40 * 3
        assert detector.state().window["batches"] == [[stop - 3, stop, 40.0]]
        assert_matches_cold_refit(detector, config)


class TestValidation:
    def test_rejects_unstable_sampler(self):
        with pytest.raises(DetectionError, match="StableEdgeSampler"):
            IncrementalEnsemFDet(make_config(sampler=RandomEdgeSampler(0.2)))

    def test_rejects_missing_seed(self):
        with pytest.raises(DetectionError, match="seed"):
            IncrementalEnsemFDet(make_config(seed=None))

    def test_update_before_fit_rejected(self, graph):
        detector = IncrementalEnsemFDet(make_config())
        with pytest.raises(DetectionError, match="fit"):
            detector.update([0], [0])
        with pytest.raises(DetectionError, match="fit"):
            detector.detect(1)


class TestPersistence:
    def test_save_load_roundtrip_detections(self, graph, tmp_path):
        config = make_config()
        detector = IncrementalEnsemFDet(config)
        detector.fit(graph)
        path = tmp_path / "state.npz"
        detector.save(path)
        loaded = IncrementalEnsemFDet.load(path)
        assert loaded.graph == detector.graph
        for threshold in (1, 3, 6):
            assert np.array_equal(
                loaded.detect(threshold).user_labels,
                detector.detect(threshold).user_labels,
            )

    def test_update_after_load_matches_in_memory(self, graph, delta, tmp_path):
        config = make_config()
        detector = IncrementalEnsemFDet(config)
        detector.fit(graph)
        path = tmp_path / "state.npz"
        detector.save(path)
        loaded = IncrementalEnsemFDet.load(path)
        report_memory = detector.update(*delta)
        report_loaded = loaded.update(*delta)
        assert report_memory.refreshed_samples == report_loaded.refreshed_samples
        assert detector.vote_table.user_votes == loaded.vote_table.user_votes
        assert_matches_cold_refit(loaded, config)

    def test_state_archive_contents(self, graph, tmp_path):
        config = make_config()
        detector = IncrementalEnsemFDet(config)
        detector.fit(graph)
        path = tmp_path / "state.npz"
        detector.save(path)
        state = load_detection_state(path)
        assert state.n_samples == config.n_samples
        assert state.config["sampler"]["stripe"] == 128
        assert state.config["ensemble"]["seed"] == 17

    def test_state_naming_a_foreign_node_is_rejected(self, graph):
        detector = IncrementalEnsemFDet(make_config())
        detector.fit(graph)
        state = detector.state()
        state.detected_users[0] = np.array([10**12])
        with pytest.raises(DetectionError, match="does not have"):
            IncrementalEnsemFDet.from_state(state)

    def test_weighted_graph_state_roundtrip(self, graph, tmp_path):
        config = make_config()
        detector = IncrementalEnsemFDet(config)
        rng = np.random.default_rng(2)
        detector.fit(graph.with_weights(rng.random(graph.n_edges)))
        path = tmp_path / "state.npz"
        detector.save(path)
        loaded = IncrementalEnsemFDet.load(path)
        assert loaded.graph.is_weighted
        assert np.array_equal(loaded.graph.edge_weights, detector.graph.edge_weights)
