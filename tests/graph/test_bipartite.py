"""Unit tests for the core BipartiteGraph container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphValidationError
from repro.graph import BipartiteGraph


class TestConstruction:
    def test_basic_counts(self, tiny_graph):
        assert tiny_graph.n_users == 4
        assert tiny_graph.n_merchants == 3
        assert tiny_graph.n_edges == 6
        assert tiny_graph.n_nodes == 7

    def test_default_labels_are_arange(self, tiny_graph):
        assert np.array_equal(tiny_graph.user_labels, np.arange(4))
        assert np.array_equal(tiny_graph.merchant_labels, np.arange(3))

    def test_empty_graph(self):
        graph = BipartiteGraph.empty(3, 2)
        assert graph.is_empty
        assert graph.n_edges == 0
        assert graph.n_nodes == 5

    def test_from_edges_infers_sizes(self):
        graph = BipartiteGraph.from_edges([(2, 5)])
        assert graph.n_users == 3
        assert graph.n_merchants == 6

    def test_from_edges_empty(self):
        graph = BipartiteGraph.from_edges([])
        assert graph.n_users == 0
        assert graph.n_merchants == 0
        assert graph.is_empty

    def test_from_edges_deduplicate(self):
        graph = BipartiteGraph.from_edges([(0, 0), (0, 0), (0, 1)], deduplicate=True)
        assert graph.n_edges == 2

    def test_out_of_range_user_rejected(self):
        with pytest.raises(GraphValidationError):
            BipartiteGraph(1, 1, [1], [0])

    def test_out_of_range_merchant_rejected(self):
        with pytest.raises(GraphValidationError):
            BipartiteGraph(1, 1, [0], [5])

    def test_negative_index_rejected(self):
        with pytest.raises(GraphValidationError):
            BipartiteGraph(2, 2, [-1], [0])

    def test_mismatched_endpoint_arrays_rejected(self):
        with pytest.raises(GraphValidationError):
            BipartiteGraph(2, 2, [0, 1], [0])

    def test_mismatched_weights_rejected(self):
        with pytest.raises(GraphValidationError):
            BipartiteGraph(2, 2, [0], [0], edge_weights=[1.0, 2.0])

    def test_mismatched_labels_rejected(self):
        with pytest.raises(GraphValidationError):
            BipartiteGraph(2, 2, [0], [0], user_labels=[7])

    def test_negative_partition_rejected(self):
        with pytest.raises(GraphValidationError):
            BipartiteGraph(-1, 2, [], [])

    def test_equality(self, tiny_graph):
        clone = BipartiteGraph(
            4, 3, tiny_graph.edge_users.copy(), tiny_graph.edge_merchants.copy()
        )
        assert tiny_graph == clone

    def test_inequality_different_edges(self, tiny_graph):
        other = BipartiteGraph.from_edges([(0, 0)], n_users=4, n_merchants=3)
        assert tiny_graph != other

    def test_equality_non_graph(self, tiny_graph):
        assert tiny_graph != "not a graph"


class TestDegrees:
    def test_user_degrees(self, tiny_graph):
        assert tiny_graph.user_degrees().tolist() == [2, 1, 1, 2]

    def test_merchant_degrees(self, tiny_graph):
        assert tiny_graph.merchant_degrees().tolist() == [2, 2, 2]

    def test_degrees_sum_to_edges(self, tiny_graph):
        assert tiny_graph.user_degrees().sum() == tiny_graph.n_edges
        assert tiny_graph.merchant_degrees().sum() == tiny_graph.n_edges

    def test_weighted_degrees_default_ones(self, tiny_graph):
        assert np.allclose(
            tiny_graph.weighted_user_degrees(), tiny_graph.user_degrees().astype(float)
        )

    def test_weighted_degrees_with_weights(self):
        graph = BipartiteGraph(2, 1, [0, 1], [0, 0], edge_weights=[2.0, 0.5])
        assert np.allclose(graph.weighted_user_degrees(), [2.0, 0.5])
        assert np.allclose(graph.weighted_merchant_degrees(), [2.5])

    def test_weights_or_ones_unweighted(self, tiny_graph):
        assert np.array_equal(tiny_graph.weights_or_ones(), np.ones(6))


class TestAdjacency:
    def test_user_adjacency_partitions_edges(self, tiny_graph):
        indptr, edge_index = tiny_graph.user_adjacency()
        assert indptr[-1] == tiny_graph.n_edges
        assert sorted(edge_index.tolist()) == list(range(6))

    def test_user_neighbors(self, tiny_graph):
        assert sorted(tiny_graph.user_neighbors(0).tolist()) == [0, 1]
        assert sorted(tiny_graph.user_neighbors(3).tolist()) == [1, 2]

    def test_merchant_neighbors(self, tiny_graph):
        assert sorted(tiny_graph.merchant_neighbors(0).tolist()) == [0, 1]

    def test_iter_edges(self, tiny_graph):
        edges = list(tiny_graph.iter_edges())
        assert len(edges) == 6
        assert (0, 0) in edges


class TestSubgraphs:
    def test_edge_subgraph_compacts_nodes(self, tiny_graph):
        sub = tiny_graph.edge_subgraph([3])  # edge (2, 2)
        assert sub.n_users == 1
        assert sub.n_merchants == 1
        assert sub.n_edges == 1
        assert sub.user_labels.tolist() == [2]
        assert sub.merchant_labels.tolist() == [2]

    def test_edge_subgraph_empty_selection(self, tiny_graph):
        sub = tiny_graph.edge_subgraph([])
        assert sub.is_empty
        assert sub.n_users == 0

    def test_edge_subgraph_out_of_range(self, tiny_graph):
        with pytest.raises(GraphValidationError):
            tiny_graph.edge_subgraph([99])

    def test_edge_subgraph_keeps_weights(self):
        graph = BipartiteGraph(2, 2, [0, 1], [0, 1], edge_weights=[3.0, 4.0])
        sub = graph.edge_subgraph([1])
        assert sub.edge_weights.tolist() == [4.0]

    def test_label_propagation_through_two_levels(self, tiny_graph):
        first = tiny_graph.edge_subgraph([0, 1, 5])  # users {0, 3}
        second = first.edge_subgraph([2])  # the (3, 2) edge
        assert second.user_labels.tolist() == [3]
        assert second.merchant_labels.tolist() == [2]

    def test_remove_edges_keeps_nodes(self, tiny_graph):
        out = tiny_graph.remove_edges([0, 1])
        assert out.n_users == tiny_graph.n_users
        assert out.n_merchants == tiny_graph.n_merchants
        assert out.n_edges == 4

    def test_remove_all_edges(self, tiny_graph):
        out = tiny_graph.remove_edges(np.arange(6))
        assert out.is_empty
        assert out.n_nodes == tiny_graph.n_nodes

    def test_with_weights_roundtrip(self, tiny_graph):
        weighted = tiny_graph.with_weights(np.full(6, 2.0))
        assert weighted.is_weighted
        assert weighted.with_weights(None).edge_weights is None


class TestTrustedConstruction:
    def test_trusted_matches_validated(self, tiny_graph):
        trusted = BipartiteGraph._from_trusted(
            n_users=tiny_graph.n_users,
            n_merchants=tiny_graph.n_merchants,
            edge_users=tiny_graph.edge_users,
            edge_merchants=tiny_graph.edge_merchants,
            edge_weights=None,
            user_labels=tiny_graph.user_labels,
            merchant_labels=tiny_graph.merchant_labels,
        )
        assert trusted == tiny_graph
        assert np.array_equal(trusted.user_degrees(), tiny_graph.user_degrees())

    def test_subgraph_ops_still_validated_lazily(self, tiny_graph):
        # trusted-path subgraphs must behave identically to the originals
        sub = tiny_graph.edge_subgraph([0, 2, 3])
        rebuilt = BipartiteGraph(
            sub.n_users,
            sub.n_merchants,
            sub.edge_users,
            sub.edge_merchants,
            user_labels=sub.user_labels,
            merchant_labels=sub.merchant_labels,
        )
        assert sub == rebuilt

    def test_remove_edges_trusted_adjacency(self, tiny_graph):
        out = tiny_graph.remove_edges([0])
        indptr, edge_idx = out.user_adjacency()
        assert indptr[-1] == out.n_edges
        assert np.array_equal(np.sort(edge_idx), np.arange(out.n_edges))


class TestWeightCaches:
    def test_weights_or_ones_cached(self, tiny_graph):
        first = tiny_graph.weights_or_ones()
        assert first is tiny_graph.weights_or_ones()  # same instance, no realloc
        assert first.dtype == np.float64
        assert first.sum() == tiny_graph.n_edges

    def test_weights_or_ones_returns_weights_when_weighted(self, tiny_graph):
        weighted = tiny_graph.with_weights(np.full(6, 2.5))
        assert weighted.weights_or_ones() is weighted.edge_weights

    def test_weighted_degrees_unweighted_dtype_and_values(self, tiny_graph):
        degrees = tiny_graph.weighted_user_degrees()
        assert degrees.dtype == np.float64
        assert np.array_equal(degrees, tiny_graph.user_degrees().astype(np.float64))
        merchant = tiny_graph.weighted_merchant_degrees()
        assert merchant.dtype == np.float64
        assert np.array_equal(merchant, tiny_graph.merchant_degrees().astype(np.float64))

    def test_weighted_degrees_with_weights(self, tiny_graph):
        weighted = tiny_graph.with_weights(np.arange(1.0, 7.0))
        expected = np.bincount(
            weighted.edge_users, weights=weighted.edge_weights, minlength=weighted.n_users
        )
        assert np.allclose(weighted.weighted_user_degrees(), expected)
