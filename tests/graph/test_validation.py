"""Unit tests for deep graph validation helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphValidationError
from repro.graph import (
    BipartiteGraph,
    assert_subgraph_of,
    has_duplicate_edges,
    validate_graph,
)


class TestValidateGraph:
    def test_valid_graph_passes(self, tiny_graph):
        validate_graph(tiny_graph)

    def test_duplicate_labels_rejected(self):
        graph = BipartiteGraph(2, 1, [0, 1], [0, 0], user_labels=[5, 5])
        with pytest.raises(GraphValidationError, match="user_labels"):
            validate_graph(graph)

    def test_duplicate_labels_allowed_when_disabled(self):
        graph = BipartiteGraph(2, 1, [0, 1], [0, 0], user_labels=[5, 5])
        validate_graph(graph, require_unique_labels=False)

    def test_non_finite_weights_rejected(self):
        graph = BipartiteGraph(1, 1, [0], [0], edge_weights=[np.inf])
        with pytest.raises(GraphValidationError, match="non-finite"):
            validate_graph(graph)

    def test_negative_weights_rejected(self):
        graph = BipartiteGraph(1, 1, [0], [0], edge_weights=[-1.0])
        with pytest.raises(GraphValidationError, match="negative"):
            validate_graph(graph)


class TestDuplicateEdges:
    def test_no_duplicates(self, tiny_graph):
        assert not has_duplicate_edges(tiny_graph)

    def test_with_duplicates(self):
        graph = BipartiteGraph(1, 1, [0, 0], [0, 0])
        assert has_duplicate_edges(graph)

    def test_empty(self):
        assert not has_duplicate_edges(BipartiteGraph.empty(1, 1))


class TestSubgraphAssertion:
    def test_edge_subgraph_is_subgraph(self, tiny_graph):
        sub = tiny_graph.edge_subgraph([0, 3])
        assert_subgraph_of(sub, tiny_graph)

    def test_remove_edges_is_subgraph(self, tiny_graph):
        sub = tiny_graph.remove_edges([1, 4])
        assert_subgraph_of(sub, tiny_graph)

    def test_foreign_nodes_rejected(self, tiny_graph):
        foreign = BipartiteGraph(1, 1, [0], [0], user_labels=[99])
        with pytest.raises(GraphValidationError, match="user labels"):
            assert_subgraph_of(foreign, tiny_graph)

    def test_foreign_edge_rejected(self, tiny_graph):
        # nodes exist in parent but the (1, 2) edge does not
        foreign = BipartiteGraph(
            1, 1, [0], [0], user_labels=[1], merchant_labels=[2]
        )
        with pytest.raises(GraphValidationError, match="edges"):
            assert_subgraph_of(foreign, tiny_graph)
