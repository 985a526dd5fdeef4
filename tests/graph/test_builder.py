"""Unit tests for GraphBuilder."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph import GraphBuilder
from repro.graph.builder import _Labels


class TestGraphBuilder:
    def test_interns_keys_in_insertion_order(self):
        builder = GraphBuilder()
        builder.add_edge("alice", "shop-z")
        builder.add_edge("bob", "shop-a")
        built = builder.build()
        assert built.user_keys == ["alice", "bob"]
        assert built.merchant_keys == ["shop-z", "shop-a"]
        assert built.user_index["bob"] == 1

    def test_repeat_keys_reuse_indices(self):
        builder = GraphBuilder()
        builder.add_edge("alice", "shop-a")
        builder.add_edge("alice", "shop-b")
        built = builder.build()
        assert built.graph.n_users == 1
        assert built.graph.n_edges == 2

    def test_deduplicate(self):
        builder = GraphBuilder(deduplicate=True)
        builder.add_edge("alice", "shop-a")
        builder.add_edge("alice", "shop-a")
        assert builder.n_edges == 1

    def test_parallel_edges_kept_by_default(self):
        builder = GraphBuilder()
        builder.add_edge("alice", "shop-a")
        builder.add_edge("alice", "shop-a")
        assert builder.n_edges == 2

    def test_weights_only_materialise_when_non_unit(self):
        builder = GraphBuilder()
        builder.add_edge("a", "x")
        built = builder.build()
        assert built.graph.edge_weights is None

        builder2 = GraphBuilder()
        builder2.add_edge("a", "x", weight=2.5)
        built2 = builder2.build()
        assert built2.graph.edge_weights.tolist() == [2.5]

    def test_isolated_nodes_allowed(self):
        builder = GraphBuilder()
        builder.add_user("lurker")
        builder.add_merchant("ghost-shop")
        builder.add_edge("alice", "shop-a")
        built = builder.build()
        assert built.graph.n_users == 2
        assert built.graph.n_merchants == 2
        assert built.graph.n_edges == 1

    def test_add_edges_bulk(self):
        builder = GraphBuilder()
        builder.add_edges([("a", "x"), ("b", "y"), ("a", "y")])
        assert builder.n_edges == 3
        assert builder.n_users == 2
        assert builder.n_merchants == 2

    def test_cannot_reuse_after_build(self):
        builder = GraphBuilder()
        builder.add_edge("a", "x")
        builder.build()
        with pytest.raises(GraphError):
            builder.add_edge("b", "y")
        with pytest.raises(GraphError):
            builder.build()

    def test_index_translation_helpers(self):
        builder = GraphBuilder()
        builder.add_edge("alice", "shop-a")
        builder.add_edge("bob", "shop-b")
        built = builder.build()
        assert built.users_from_indices([1, 0]) == ["bob", "alice"]
        assert built.merchants_from_indices([0]) == ["shop-a"]

    def test_empty_build(self):
        built = GraphBuilder().build()
        assert built.graph.is_empty
        assert built.graph.n_users == 0


class TestLabelInterning:
    """``_Labels`` gives each batch's unseen labels the next node ids in
    ascending label order, and every label keeps its node id."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.one_of(st.integers(-50, 50), st.integers(-(2**63), 2**63 - 1)), max_size=40
            ),
            max_size=8,
        )
    )
    def test_node_ids_follow_np_unique(self, batches):
        labels = _Labels("user")
        node_of: dict[int, int] = {}
        for batch in batches:
            raw = np.array(batch, dtype=np.int64)
            for label in np.unique(raw).tolist():  # ascending, as np.unique gives them
                node_of.setdefault(label, len(node_of))
            expected = np.array([node_of[label] for label in batch], dtype=np.int64)
            assert np.array_equal(labels.intern(raw), expected)
            assert np.array_equal(labels.lookup(raw), expected)
        assert labels.labels().tolist() == list(node_of)
