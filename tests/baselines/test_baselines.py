"""Unit & behavioural tests for the comparison methods."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    DegreeDetector,
    FBoxDetector,
    FraudarDetector,
    SpokenDetector,
)
from repro.datasets import chung_lu_bipartite
from repro.errors import DetectionError
from repro.fdet import (
    AverageDegreeDensity,
    DensityMetric,
    LogWeightedDensity,
    PeelEngine,
    greedy_peel,
)
from repro.graph import BipartiteGraph


class InverseSqrtDensity(DensityMetric):
    """Edge weight ``1/sqrt(d + 1)``: the batch gate refuses it, so each block peels alone."""

    def merchant_degree_weights(self, degrees):
        return 1.0 / np.sqrt(degrees.astype(np.float64) + 1.0)


def _rebuild_per_block(graph, n_blocks, metric):
    """Fraudar's block loop on the reference peel, rebuilding the graph per block."""
    blocks = []
    current = graph
    for _ in range(n_blocks):
        if current.is_empty:
            break
        peel = greedy_peel(current, metric.edge_weights(current), engine=PeelEngine.REFERENCE)
        block_edges = peel.edge_indices(current)
        if block_edges.size < 1:
            break
        blocks.append(
            (
                np.sort(current.user_labels[peel.user_mask]),
                np.sort(current.merchant_labels[peel.merchant_mask]),
                peel.density,
                int(block_edges.size),
            )
        )
        current = current.remove_edges(block_edges)
    return blocks


@pytest.fixture(scope="module", params=["zero", "negative"])
def unusual_weight_graph(request):
    """Weighted, with five users and five merchants that have no edge.

    A quarter of the weights are zero, or a tenth are negative. Either way
    the peel must keep the edgeless nodes, as the reference does.
    """
    base = chung_lu_bipartite(150, 60, 600, rng=4)
    users = np.setdiff1d(np.arange(base.n_users + 5), [0, 40, 80, 120, 154])
    merchants = np.setdiff1d(np.arange(base.n_merchants + 5), [0, 15, 30, 45, 64])
    weights = np.random.default_rng(6).uniform(0.2, 3.0, base.n_edges)
    if request.param == "zero":
        weights[::4] = 0.0
    else:
        weights[::10] *= -1.0
    graph = BipartiteGraph(
        base.n_users + 5,
        base.n_merchants + 5,
        users[base.edge_users],
        merchants[base.edge_merchants],
        weights,
    )
    assert (graph.user_degrees() == 0).sum() >= 5
    assert (graph.merchant_degrees() == 0).sum() >= 5
    return graph


class TestFraudar:
    def test_invalid_params(self):
        with pytest.raises(DetectionError):
            FraudarDetector(n_blocks=0)
        with pytest.raises(DetectionError):
            FraudarDetector(min_block_edges=0)
        with pytest.raises(DetectionError):
            FraudarDetector(engine="bogus")

    @pytest.mark.parametrize(
        "metric",
        [LogWeightedDensity(), AverageDegreeDensity(), InverseSqrtDensity()],
        ids=["log-weighted", "average-degree", "inverse-sqrt"],
    )
    @pytest.mark.parametrize("engine", PeelEngine.ALL)
    def test_matches_rebuild_per_block(self, unusual_weight_graph, engine, metric):
        graph = unusual_weight_graph
        result = FraudarDetector(n_blocks=12, metric=metric, engine=engine).detect(graph)
        expected = _rebuild_per_block(graph, 12, metric)
        assert len(result.blocks) == len(expected)
        for block, (user_labels, merchant_labels, density, n_edges) in zip(
            result.blocks, expected
        ):
            assert np.array_equal(block.user_labels, user_labels)
            assert np.array_equal(block.merchant_labels, merchant_labels)
            assert block.density == density  # bitwise, no tolerance
            assert block.n_edges == n_edges

    def test_detects_planted_block_first(self, planted_graph):
        graph, injection = planted_graph
        result = FraudarDetector(n_blocks=3).detect(graph)
        first_users = set(result.blocks[0].user_labels.tolist())
        truth = set(injection.fraud_user_labels.tolist())
        assert len(first_users & truth) / len(truth) >= 0.8

    def test_blocks_bounded(self, planted_graph):
        graph, _ = planted_graph
        result = FraudarDetector(n_blocks=2).detect(graph)
        assert len(result.blocks) <= 2

    def test_cumulative_detections_grow(self, planted_graph):
        graph, _ = planted_graph
        result = FraudarDetector(n_blocks=4).detect(graph)
        points = result.cumulative_detections()
        sizes = [labels.size for _, labels in points]
        assert sizes == sorted(sizes)
        assert points[0][0] == 1

    def test_detected_users_union(self, planted_graph):
        graph, _ = planted_graph
        result = FraudarDetector(n_blocks=4).detect(graph)
        all_users = set(result.detected_users().tolist())
        first = set(result.detected_users(1).tolist())
        assert first <= all_users

    def test_empty_graph(self):
        result = FraudarDetector(n_blocks=3).detect(BipartiteGraph.empty(5, 5))
        assert result.blocks == ()
        assert result.detected_users().size == 0
        assert result.detected_merchants().size == 0

    def test_densities_non_increasing_in_practice(self, planted_graph):
        graph, _ = planted_graph
        result = FraudarDetector(n_blocks=5).detect(graph)
        densities = [b.density for b in result.blocks]
        # refresh-weight drift can cause tiny wiggles; allow 5% slack
        for earlier, later in zip(densities, densities[1:]):
            assert later <= earlier * 1.05


class TestSpoken:
    def test_scores_shape_and_range(self, planted_graph):
        graph, _ = planted_graph
        scores = SpokenDetector(n_components=5).score(graph)
        assert scores.user_scores.shape == (graph.n_users,)
        assert scores.merchant_scores.shape == (graph.n_merchants,)
        assert np.all(scores.user_scores >= 0)
        assert np.all(scores.user_scores <= 1.0 + 1e-9)

    def test_components_clamped_to_rank(self):
        graph = BipartiteGraph.from_edges(
            [(u, v) for u in range(3) for v in range(3)], n_users=3, n_merchants=3
        )
        scores = SpokenDetector(n_components=25).score(graph)
        assert scores.n_components <= 2

    def test_clamp_logs_warning_on_tiny_graph(self, caplog):
        # regression: n_components >= min(n_users, n_merchants) must clamp
        # to a valid SVD rank with a logged warning, not fail inside ARPACK
        graph = BipartiteGraph.from_edges(
            [(0, 0), (0, 1), (1, 0), (1, 1)], n_users=2, n_merchants=2
        )
        with caplog.at_level("WARNING", logger="repro.baselines"):
            scores = SpokenDetector(n_components=25).score(graph)
        assert scores.n_components == 1
        assert any("clamping n_components" in record.message for record in caplog.records)

    def test_no_warning_when_rank_fits(self, planted_graph, caplog):
        graph, _ = planted_graph
        with caplog.at_level("WARNING", logger="repro.baselines"):
            SpokenDetector(n_components=3).score(graph)
        assert not caplog.records

    def test_planted_block_scores_high(self, planted_graph):
        graph, injection = planted_graph
        scores = SpokenDetector(n_components=8).score(graph)
        truth_mask = np.isin(graph.user_labels, injection.fraud_user_labels)
        fraud_mean = scores.user_scores[truth_mask].mean()
        normal_mean = scores.user_scores[~truth_mask].mean()
        assert fraud_mean > normal_mean

    def test_top_users(self, planted_graph):
        graph, _ = planted_graph
        scores = SpokenDetector(n_components=5).score(graph)
        top = scores.top_users(10)
        assert top.size == 10
        assert np.all(np.diff(scores.user_scores[top]) <= 1e-12)

    def test_too_small_graph_rejected(self):
        graph = BipartiteGraph.from_edges([(0, 0)])
        with pytest.raises(DetectionError):
            SpokenDetector().score(graph)

    def test_invalid_components(self):
        with pytest.raises(DetectionError):
            SpokenDetector(n_components=0)


class TestFBox:
    def test_scores_shape_and_range(self, planted_graph):
        graph, _ = planted_graph
        scores = FBoxDetector(n_components=5).score(graph)
        assert scores.user_scores.shape == (graph.n_users,)
        assert np.all(scores.user_scores >= 0)
        assert np.all(scores.user_scores <= 1.0)

    def test_low_degree_users_never_flagged(self, planted_graph):
        graph, _ = planted_graph
        detector = FBoxDetector(n_components=5, min_degree=3)
        scores = detector.score(graph)
        low = graph.user_degrees() < 3
        assert np.all(scores.user_scores[low] == 0)

    def test_detect_users_threshold(self, planted_graph):
        graph, _ = planted_graph
        detector = FBoxDetector(n_components=5)
        strict = detector.detect_users(graph, tau=0.05)
        loose = detector.detect_users(graph, tau=0.5)
        assert strict.size <= loose.size

    def test_invalid_tau(self, planted_graph):
        graph, _ = planted_graph
        with pytest.raises(DetectionError):
            FBoxDetector().detect_users(graph, tau=0.0)

    def test_invalid_params(self):
        with pytest.raises(DetectionError):
            FBoxDetector(n_components=0)
        with pytest.raises(DetectionError):
            FBoxDetector(min_degree=-1)
        with pytest.raises(DetectionError):
            FBoxDetector(n_degree_buckets=0)

    def test_too_small_graph_rejected(self):
        graph = BipartiteGraph.from_edges([(0, 0)])
        with pytest.raises(DetectionError):
            FBoxDetector().score(graph)

    def test_components_clamped_with_warning_on_tiny_graph(self, caplog):
        # regression: same clamp-and-warn behaviour as SpokEn on graphs
        # smaller than the configured SVD rank
        graph = BipartiteGraph.from_edges(
            [(u, v) for u in range(4) for v in range(2)], n_users=4, n_merchants=2
        )
        with caplog.at_level("WARNING", logger="repro.baselines"):
            scores = FBoxDetector(n_components=25, min_degree=1).score(graph)
        assert scores.user_scores.shape == (4,)
        assert any("clamping n_components" in record.message for record in caplog.records)


class TestDegreeDetector:
    def test_scores_are_degrees(self, tiny_graph):
        scores = DegreeDetector().score_users(tiny_graph)
        assert scores.tolist() == [2.0, 1.0, 1.0, 2.0]

    def test_weighted_variant(self):
        graph = BipartiteGraph(2, 1, [0, 1], [0, 0], edge_weights=[5.0, 1.0])
        scores = DegreeDetector(weighted=True).score_users(graph)
        assert scores.tolist() == [5.0, 1.0]

    def test_top_users(self, tiny_graph):
        top = DegreeDetector().top_users(tiny_graph, 2)
        assert set(top.tolist()) == {0, 3}

    def test_top_users_clamped(self, tiny_graph):
        assert DegreeDetector().top_users(tiny_graph, 99).size == 4

    def test_all_ties_rank_by_node_index(self):
        # regression: equal-degree users must rank deterministically by
        # node index (explicit (score, id) sort key, not argsort luck)
        graph = BipartiteGraph.from_edges(
            [(u, u % 3) for u in range(6)], n_users=6, n_merchants=3
        )
        assert DegreeDetector().score_users(graph).tolist() == [1.0] * 6
        assert DegreeDetector().top_users(graph, 6).tolist() == [0, 1, 2, 3, 4, 5]
        assert DegreeDetector().top_users(graph, 3).tolist() == [0, 1, 2]

    def test_ties_within_equal_scores_keep_index_order(self, tiny_graph):
        # degrees are [2, 1, 1, 2]: ties (0,3) and (1,2) each keep index order
        assert DegreeDetector().top_users(tiny_graph, 4).tolist() == [0, 3, 1, 2]
