"""Unit tests for the greedy peeling engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DetectionError
from repro.fdet import AverageDegreeDensity, LogWeightedDensity, greedy_peel
from repro.graph import BipartiteGraph


def peel(graph, metric=None):
    metric = metric or LogWeightedDensity()
    return greedy_peel(graph, metric.edge_weights(graph))


class TestGreedyPeel:
    def test_clique_returned_whole(self, clique_graph):
        result = peel(clique_graph)
        assert result.n_users == 5
        assert result.n_merchants == 4
        assert result.n_removed == 0

    def test_pendant_trimmed_from_clique(self):
        edges = [(u, v) for u in range(4) for v in range(4)] + [(4, 0)]
        graph = BipartiteGraph.from_edges(edges, n_users=5, n_merchants=4)
        result = peel(graph, AverageDegreeDensity())
        assert result.n_users == 4  # pendant user 4 peeled away
        assert not result.user_mask[4]

    def test_best_density_at_least_whole_graph_density(self, planted_graph):
        graph, _ = planted_graph
        metric = LogWeightedDensity()
        result = greedy_peel(graph, metric.edge_weights(graph))
        assert result.density >= metric.density(graph) - 1e-12

    def test_densities_series_starts_at_whole_graph(self, clique_graph):
        metric = AverageDegreeDensity()
        result = greedy_peel(clique_graph, metric.edge_weights(clique_graph))
        assert result.densities[0] == pytest.approx(metric.density(clique_graph))

    def test_density_matches_recomputation_on_best_prefix(self, planted_graph):
        """The reported best density equals the metric evaluated on the prefix."""
        graph, _ = planted_graph
        metric = LogWeightedDensity()
        edge_weights = metric.edge_weights(graph)
        result = greedy_peel(graph, edge_weights)
        inside = result.edge_indices(graph)
        total = float(edge_weights[inside].sum())
        assert result.density == pytest.approx(total / result.n_nodes)

    def test_charikar_half_approximation_on_average_degree(self, planted_graph):
        """Greedy peeling 2-approximates the densest subgraph (avg-degree)."""
        graph, _ = planted_graph
        metric = AverageDegreeDensity()
        result = greedy_peel(graph, metric.edge_weights(graph))
        # whole graph density lower-bounds the optimum; greedy >= opt/2 >= whole/2
        assert result.density >= metric.density(graph) / 2.0

    def test_empty_graph(self):
        graph = BipartiteGraph.empty(0, 0)
        result = greedy_peel(graph, np.empty(0))
        assert result.density == 0.0
        assert result.n_nodes == 0

    def test_edgeless_graph_with_nodes(self):
        graph = BipartiteGraph.empty(3, 2)
        result = greedy_peel(graph, np.empty(0))
        assert result.density == 0.0
        assert result.densities[0] == 0.0

    def test_single_edge(self):
        graph = BipartiteGraph.from_edges([(0, 0)])
        result = peel(graph)
        assert result.n_users == 1
        assert result.n_merchants == 1
        assert result.density > 0

    def test_mismatched_weights_rejected(self, tiny_graph):
        with pytest.raises(DetectionError):
            greedy_peel(tiny_graph, np.ones(99))

    def test_two_stars_keep_the_whole_graph(self):
        """The greedy is a 2-approximation: it can miss the densest subgraph."""
        # merchant 0 with 3 users (3/4 on its own), merchant 1 with 2 users
        edges = [(0, 0), (1, 0), (2, 0), (3, 1), (4, 1)]
        graph = BipartiteGraph.from_edges(edges, n_users=5, n_merchants=2)
        result = peel(graph, AverageDegreeDensity())
        assert result.n_removed == 0
        assert result.density == pytest.approx(5.0 / 7.0)

    def test_result_is_the_first_best_prefix(self, planted_graph):
        graph, _ = planted_graph
        result = peel(graph)
        assert result.density == result.densities.max()
        assert result.n_removed == int(np.argmax(result.densities))

    def test_deterministic(self, planted_graph):
        graph, _ = planted_graph
        metric = LogWeightedDensity()
        a = greedy_peel(graph, metric.edge_weights(graph))
        b = greedy_peel(graph, metric.edge_weights(graph))
        assert np.array_equal(a.user_mask, b.user_mask)
        assert a.density == b.density

    def test_planted_block_recovered(self, planted_graph):
        graph, injection = planted_graph
        result = peel(graph)
        detected = set(graph.user_labels[result.user_mask].tolist())
        truth = set(injection.fraud_user_labels.tolist())
        recovered = len(detected & truth) / len(truth)
        assert recovered >= 0.8

    def test_edge_indices_within_prefix(self, planted_graph):
        graph, _ = planted_graph
        result = peel(graph)
        inside = result.edge_indices(graph)
        assert np.all(result.user_mask[graph.edge_users[inside]])
        assert np.all(result.merchant_mask[graph.edge_merchants[inside]])
