"""ScoreSnapshot: capture parity, deterministic ranking, read semantics."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.datasets import uniform_bipartite
from repro.ensemble import EnsemFDet, EnsemFDetConfig, IncrementalEnsemFDet
from repro.errors import DetectionError
from repro.fdet import FdetConfig
from repro.graph import BipartiteGraph, WindowConfig
from repro.sampling import StableEdgeSampler
from repro.serve import ScoreSnapshot


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
def detector():
    graph = uniform_bipartite(150, 70, 1400, rng=3)
    det = IncrementalEnsemFDet(make_config(), window=WindowConfig(max_batches=4))
    det.fit(graph, timestamp=0.0)
    return det


@pytest.fixture
def snapshot(detector):
    return ScoreSnapshot.capture(detector, version=1)


class TestCapture:
    def test_votes_match_live_table(self, detector, snapshot):
        assert snapshot.user_votes == dict(detector.vote_table.user_votes)
        assert snapshot.merchant_votes == dict(detector.vote_table.merchant_votes)

    def test_votes_are_copies(self, detector, snapshot):
        table = detector.vote_table
        for captured, live in (
            (snapshot.user_votes, table.user_votes),
            (snapshot.merchant_votes, table.merchant_votes),
        ):
            for ours in (captured.labels, captured.counts):
                for theirs in (live.labels, live.counts, detector.graph.user_labels):
                    assert not np.shares_memory(ours, theirs)
        assert not np.shares_memory(snapshot.user_scores, table.user_votes.counts)

    def test_ingest_after_capture_leaves_snapshot_unchanged(self, detector, snapshot):
        votes = dict(snapshot.user_votes), dict(snapshot.merchant_votes)
        scores = snapshot.user_scores.copy()
        ranked = snapshot.ranked_users.copy(), snapshot.ranked_scores.copy()
        fingerprint = snapshot.vote_fingerprint()
        rng = np.random.default_rng(11)
        report = detector.update(
            rng.integers(0, 200, 300), rng.integers(0, 90, 300), timestamp=1.0
        )
        assert report.n_refreshed > 0
        assert ScoreSnapshot.capture(detector, 2).vote_fingerprint() != fingerprint
        assert (dict(snapshot.user_votes), dict(snapshot.merchant_votes)) == votes
        assert np.array_equal(snapshot.user_scores, scores)
        assert np.array_equal(snapshot.ranked_users, ranked[0])
        assert np.array_equal(snapshot.ranked_scores, ranked[1])
        assert snapshot.vote_fingerprint() == fingerprint

    def test_scores_parallel_to_all_users(self, detector, snapshot):
        assert snapshot.user_labels.size == detector.graph.n_users
        assert snapshot.user_scores.shape == snapshot.user_labels.shape
        for label, score in zip(
            snapshot.user_labels.tolist(), snapshot.user_scores.tolist()
        ):
            assert score == detector.vote_table.user_votes.get(label, 0)

    def test_graph_shape_recorded(self, detector, snapshot):
        assert snapshot.n_users == detector.graph.n_users
        assert snapshot.n_merchants == detector.graph.n_merchants
        assert snapshot.n_edges == detector.graph.n_edges
        assert snapshot.watermark == detector.window().watermark

    def test_detector_without_a_window_bound_has_a_watermark(self):
        graph = uniform_bipartite(60, 30, 400, rng=1)
        det = IncrementalEnsemFDet(make_config())
        det.fit(graph)
        det.update([1, 2], [3, 4], remove_users=graph.edge_users[:1],
                   remove_merchants=graph.edge_merchants[:1])
        snapshot = ScoreSnapshot.capture(det, version=1)
        assert snapshot.watermark == graph.n_edges + 2
        cold = EnsemFDet(make_config()).fit_window(det.window()).vote_table
        assert snapshot.user_votes == cold.user_votes
        assert snapshot.merchant_votes == cold.merchant_votes

    def test_default_threshold_is_quarter_of_n(self, detector):
        assert ScoreSnapshot.capture(detector, version=1).default_threshold == 2
        assert (
            ScoreSnapshot.capture(detector, version=1, default_threshold=5)
            .default_threshold
            == 5
        )


class TestRanking:
    def test_ranking_orders_by_score_then_index(self, snapshot):
        scores = snapshot.ranked_scores
        assert np.all(scores[:-1] >= scores[1:])
        # within a tied score run, node index (== position in user_labels)
        # must be ascending
        index_of = {label: i for i, label in enumerate(snapshot.user_labels.tolist())}
        ranked = snapshot.ranked_users.tolist()
        for a, b, sa, sb in zip(ranked, ranked[1:], scores, scores[1:]):
            if sa == sb:
                assert index_of[a] < index_of[b]

    def test_top_clamps_k(self, snapshot):
        n = snapshot.ranked_users.size
        assert snapshot.top(0) == []
        assert snapshot.top(-5) == []
        assert len(snapshot.top(n)) == n
        assert len(snapshot.top(n + 100)) == n
        assert snapshot.top(3) == snapshot.top(n)[:3]


class TestReads:
    def test_score_of_unknown_user_is_zero(self, snapshot):
        assert snapshot.score_of(10**9) == 0.0
        assert not snapshot.knows_user(10**9)

    def test_detection_matches_detector_detect(self, detector, snapshot):
        for threshold in range(1, 9):
            users, merchants = snapshot.detection(threshold)
            reference = detector.detect(threshold)
            assert users == reference.user_labels.tolist()
            assert merchants == reference.merchant_labels.tolist()

    def test_detection_rejects_threshold_below_one(self, snapshot):
        with pytest.raises(DetectionError, match="threshold"):
            snapshot.detection(0)

    def test_fingerprint_equality(self, detector, snapshot):
        again = ScoreSnapshot.capture(detector, version=2)
        assert snapshot.vote_fingerprint() == again.vote_fingerprint()


class TestScoreLookups:
    """``/score/{u}`` answers: a sorted lookup over scrambled, gapped labels."""

    @pytest.fixture
    def scrambled(self):
        base = uniform_bipartite(150, 70, 1400, rng=4)
        rng = np.random.default_rng(8)
        graph = BipartiteGraph(
            base.n_users,
            base.n_merchants,
            base.edge_users,
            base.edge_merchants,
            user_labels=rng.permutation(base.n_users) * 3 + 10,
            merchant_labels=rng.permutation(base.n_merchants) * 2 + 1,
        )
        det = IncrementalEnsemFDet(make_config(), window=WindowConfig(max_batches=4))
        det.fit(graph, timestamp=0.0)
        return det

    def test_every_user_scores_its_cold_fit_vote(self, scrambled):
        snapshot = ScoreSnapshot.capture(scrambled, version=1)
        cold = EnsemFDet(make_config()).fit_window(scrambled.window()).vote_table
        assert cold.max_user_votes() > 0
        for label in scrambled.graph.user_labels.tolist():
            assert snapshot.score_of(label) == cold.user_votes[label]
            assert snapshot.knows_user(label)

    def test_labels_outside_the_graph_are_unknown(self, scrambled):
        snapshot = ScoreSnapshot.capture(scrambled, version=1)
        labels = scrambled.graph.user_labels
        unseen = int(labels.min()) + 1  # labels step by 3, so this falls in a gap
        assert unseen not in set(labels.tolist())
        for label in (unseen, -5, int(labels.max()) + 1, 2**63, -(2**63) - 1):
            assert snapshot.score_of(label) == 0.0
            assert not snapshot.knows_user(label)

    def test_users_added_by_an_ingest_are_known_only_afterwards(self, scrambled):
        before = ScoreSnapshot.capture(scrambled, version=1)
        added = [1, 2, 4, 5, 10**12]
        scrambled.update(added, scrambled.graph.merchant_labels[:5], timestamp=1.0)
        after = ScoreSnapshot.capture(scrambled, version=2)
        for label in added:
            assert not before.knows_user(label)
            assert after.knows_user(label)
            assert before.score_of(label) == 0.0
            assert after.score_of(label) == after.user_votes[label]

    def test_a_graph_whose_labels_repeat_is_refused(self):
        """A detector gives every label one node, so a snapshot scores each
        user by its own node; a graph that repeats a label is refused at
        fit and at resume, before any snapshot exists."""
        base = uniform_bipartite(80, 40, 700, rng=6)
        det = IncrementalEnsemFDet(make_config())
        det.fit(base)
        before = ScoreSnapshot.capture(det, version=1).vote_fingerprint()
        state = det.state()
        for side in ("user", "merchant"):
            labels = np.arange(getattr(base, f"n_{side}s"), dtype=np.int64)
            labels[-1] = labels[0]
            graph = BipartiteGraph(
                base.n_users,
                base.n_merchants,
                base.edge_users,
                base.edge_merchants,
                **{f"{side}_labels": labels},
            )
            with pytest.raises(DetectionError, match=f"duplicate {side} labels"):
                det.fit(graph)
            assert ScoreSnapshot.capture(det, version=2).vote_fingerprint() == before
            assert det.graph is not graph
            with pytest.raises(DetectionError, match=f"duplicate {side} labels"):
                IncrementalEnsemFDet.from_state(dataclasses.replace(state, graph=graph))
        fresh = IncrementalEnsemFDet(make_config())
        with pytest.raises(DetectionError, match="duplicate user labels"):
            fresh.fit(
                BipartiteGraph(
                    base.n_users,
                    base.n_merchants,
                    base.edge_users,
                    base.edge_merchants,
                    user_labels=np.zeros(base.n_users, dtype=np.int64),
                )
            )
        assert not fresh.is_fitted
