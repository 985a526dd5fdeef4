"""Unit tests for density metrics (paper Definition 2)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.datasets import uniform_bipartite
from repro.errors import DetectionError
from repro.fdet import AverageDegreeDensity, DensityMetric, LogWeightedDensity
from repro.graph import BipartiteGraph


class TestLogWeightedDensity:
    def test_edge_weight_formula(self, tiny_graph):
        metric = LogWeightedDensity(c=5.0)
        weights = metric.edge_weights(tiny_graph)
        # every merchant has degree 2 -> weight 1/log(7)
        assert np.allclose(weights, 1.0 / math.log(7.0))

    def test_high_degree_merchants_penalised(self):
        metric = LogWeightedDensity()
        low = metric.merchant_degree_weights(np.array([1]))
        high = metric.merchant_degree_weights(np.array([1000]))
        assert low[0] > high[0]

    def test_weights_strictly_positive_even_for_degree_zero(self):
        metric = LogWeightedDensity(c=5.0)
        assert metric.merchant_degree_weights(np.array([0]))[0] > 0

    def test_c_must_exceed_one(self):
        with pytest.raises(DetectionError):
            LogWeightedDensity(c=1.0)
        with pytest.raises(DetectionError):
            LogWeightedDensity(c=0.5)

    def test_density_of_clique(self, clique_graph):
        metric = LogWeightedDensity(c=5.0)
        # 20 edges, every merchant degree 5 -> weight 1/log(10); 9 nodes
        expected = 20.0 * (1.0 / math.log(10.0)) / 9.0
        assert metric.density(clique_graph) == pytest.approx(expected)

    def test_density_of_empty_graph(self):
        assert LogWeightedDensity().density(BipartiteGraph.empty(0, 0)) == 0.0

    def test_density_counts_isolated_nodes_in_denominator(self):
        one_edge = BipartiteGraph.from_edges([(0, 0)], n_users=1, n_merchants=1)
        padded = BipartiteGraph.from_edges([(0, 0)], n_users=10, n_merchants=1)
        metric = LogWeightedDensity()
        assert metric.density(padded) < metric.density(one_edge)

    def test_external_degree_source(self, tiny_graph):
        metric = LogWeightedDensity(c=5.0)
        frozen = np.array([100, 100, 100])
        weights = metric.edge_weights(tiny_graph, merchant_degrees=frozen)
        assert np.allclose(weights, 1.0 / math.log(105.0))

    def test_external_degree_source_wrong_length(self, tiny_graph):
        with pytest.raises(DetectionError):
            LogWeightedDensity().edge_weights(tiny_graph, merchant_degrees=np.array([1]))

    def test_graph_edge_weights_multiply(self):
        graph = BipartiteGraph(1, 1, [0], [0], edge_weights=[2.0])
        metric = LogWeightedDensity(c=5.0)
        assert metric.edge_weights(graph)[0] == pytest.approx(2.0 / math.log(6.0))

    def test_frozen_degrees_survive_subgraphing(self):
        """Parent degrees on an edge subgraph reproduce the parent's edge weights."""
        graph = uniform_bipartite(50, 20, 300, rng=1)
        metric = LogWeightedDensity()
        edges = np.arange(0, graph.n_edges, 3)
        sub = graph.edge_subgraph(edges)
        # default labels are the parent's node indices
        frozen = graph.merchant_degrees()[sub.merchant_labels]
        assert np.array_equal(metric.edge_weights(sub, frozen), metric.edge_weights(graph)[edges])
        # the subgraph's own, smaller degrees weigh its edges more
        assert (metric.edge_weights(sub) >= metric.edge_weights(sub, frozen)).all()


class TestAverageDegreeDensity:
    def test_all_edges_weigh_one(self, tiny_graph):
        metric = AverageDegreeDensity()
        assert np.allclose(metric.edge_weights(tiny_graph), 1.0)

    def test_density_is_edges_over_nodes(self, clique_graph):
        metric = AverageDegreeDensity()
        assert metric.density(clique_graph) == pytest.approx(20.0 / 9.0)

    def test_density_of_empty_graph(self):
        assert AverageDegreeDensity().density(BipartiteGraph.empty(0, 0)) == 0.0

    def test_edge_weights_are_the_graph_weights(self):
        graph = BipartiteGraph(2, 2, [0, 1, 1], [0, 0, 1], edge_weights=[0.5, 2.0, 3.0])
        assert AverageDegreeDensity().edge_weights(graph).tolist() == [0.5, 2.0, 3.0]


class HalfOverDegree(DensityMetric):
    """A metric of neither stock kind: edge weight ``1 / (2 (d + 1))``."""

    def merchant_degree_weights(self, degrees):
        return 0.5 / (degrees.astype(np.float64) + 1.0)


class TestDensityMetricSubclass:
    def test_multipliers_scale_edge_weights(self):
        # merchant 0 has degree 2, merchant 1 degree 1
        graph = BipartiteGraph(2, 2, [0, 1, 1], [0, 0, 1], edge_weights=[1.0, 3.0, 2.0])
        weights = HalfOverDegree().edge_weights(graph)
        assert weights.tolist() == [0.5 / 3.0, 1.5 / 3.0, 2.0 / 4.0]

    def test_density_is_total_weight_over_nodes(self, clique_graph):
        metric = HalfOverDegree()
        # 20 edges into degree-5 merchants, 9 nodes
        assert metric.density(clique_graph) == pytest.approx(20.0 * (0.5 / 6.0) / 9.0)
