"""Property-based tests (hypothesis) for the graph substrate."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import BipartiteGraph, assert_subgraph_of, to_scipy, validate_graph


@st.composite
def bipartite_graphs(draw, max_users=12, max_merchants=10, max_edges=40):
    """Random small bipartite graphs (possibly with parallel edges)."""
    n_users = draw(st.integers(1, max_users))
    n_merchants = draw(st.integers(1, max_merchants))
    n_edges = draw(st.integers(0, max_edges))
    edge_users = draw(
        st.lists(st.integers(0, n_users - 1), min_size=n_edges, max_size=n_edges)
    )
    edge_merchants = draw(
        st.lists(st.integers(0, n_merchants - 1), min_size=n_edges, max_size=n_edges)
    )
    return BipartiteGraph(n_users, n_merchants, edge_users, edge_merchants)


@given(bipartite_graphs())
@settings(max_examples=60, deadline=None)
def test_degrees_sum_to_edge_count(graph):
    assert graph.user_degrees().sum() == graph.n_edges
    assert graph.merchant_degrees().sum() == graph.n_edges


@given(bipartite_graphs())
@settings(max_examples=60, deadline=None)
def test_adjacency_partitions_edge_set(graph):
    validate_graph(graph, require_unique_labels=True)


@given(bipartite_graphs(), st.randoms())
@settings(max_examples=60, deadline=None)
def test_edge_subgraph_always_subgraph(graph, random):
    if graph.is_empty:
        return
    k = random.randint(1, graph.n_edges)
    picked = random.sample(range(graph.n_edges), k)
    sub = graph.edge_subgraph(picked)
    assert sub.n_edges == k
    assert_subgraph_of(sub, graph)


@given(bipartite_graphs())
@settings(max_examples=60, deadline=None)
def test_remove_edges_complements_edge_subgraph(graph):
    if graph.is_empty:
        return
    half = np.arange(graph.n_edges // 2)
    removed = graph.remove_edges(half)
    assert removed.n_edges == graph.n_edges - half.size
    assert removed.n_nodes == graph.n_nodes


@given(bipartite_graphs())
@settings(max_examples=40, deadline=None)
def test_to_scipy_sums_to_weighted_degrees(graph):
    matrix = to_scipy(graph)
    assert matrix.shape == (graph.n_users, graph.n_merchants)
    # parallel edges sum into one entry, so the margins are the weighted degrees
    assert np.array_equal(np.asarray(matrix.sum(axis=1)).ravel(), graph.weighted_user_degrees())
    assert np.array_equal(
        np.asarray(matrix.sum(axis=0)).ravel(), graph.weighted_merchant_degrees()
    )
