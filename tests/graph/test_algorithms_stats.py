"""Unit tests for graph statistics."""

from __future__ import annotations

import numpy as np

from repro.graph import BipartiteGraph, degree_gini, degree_histogram, describe, edge_density


class TestStats:
    def test_describe_counts(self, tiny_graph):
        stats = describe(tiny_graph)
        assert stats.n_users == 4
        assert stats.n_edges == 6
        assert stats.avg_user_degree == 1.5
        assert stats.avg_merchant_degree == 2.0
        assert stats.isolated_users == 0

    def test_describe_empty(self):
        stats = describe(BipartiteGraph.empty(2, 3))
        assert stats.avg_user_degree == 0.0
        assert stats.isolated_users == 2
        assert stats.edge_density == 0.0

    def test_edge_density_clique(self, clique_graph):
        assert edge_density(clique_graph) == 1.0

    def test_describe_as_row_keys(self, tiny_graph):
        row = describe(tiny_graph).as_row()
        assert {"users", "merchants", "edges"} <= set(row)

    def test_degree_histogram(self, tiny_graph):
        hist = degree_histogram(tiny_graph.user_degrees())
        assert hist == {1: 2, 2: 2}

    def test_degree_histogram_empty(self):
        assert degree_histogram(np.array([], dtype=np.int64)) == {}

    def test_gini_uniform_is_zero(self):
        assert degree_gini(np.full(100, 5)) == 0.0

    def test_gini_concentrated_is_high(self):
        degrees = np.zeros(100)
        degrees[0] = 1000
        assert degree_gini(degrees) > 0.9

    def test_gini_empty_and_zero(self):
        assert degree_gini(np.array([])) == 0.0
        assert degree_gini(np.zeros(5)) == 0.0
