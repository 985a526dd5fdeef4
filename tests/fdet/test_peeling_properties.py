"""Property-based tests for the peeling engine and truncation rules."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fdet import (
    AverageDegreeDensity,
    LogWeightedDensity,
    PeelEngine,
    SecondDifferenceRule,
    greedy_peel,
)
from repro.graph import BipartiteGraph


@st.composite
def graphs_with_weights(draw):
    n_users = draw(st.integers(1, 10))
    n_merchants = draw(st.integers(1, 8))
    n_edges = draw(st.integers(0, 30))
    edge_users = draw(st.lists(st.integers(0, n_users - 1), min_size=n_edges, max_size=n_edges))
    edge_merchants = draw(
        st.lists(st.integers(0, n_merchants - 1), min_size=n_edges, max_size=n_edges)
    )
    graph = BipartiteGraph(n_users, n_merchants, edge_users, edge_merchants)
    weights = np.array(
        draw(
            st.lists(
                st.floats(0.01, 10.0, allow_nan=False, allow_infinity=False),
                min_size=n_edges,
                max_size=n_edges,
            )
        ),
        dtype=np.float64,
    )
    return graph, weights


#: a few repeated values so priorities tie, with both zeros and both signs
_TIED_WEIGHTS = (-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0)


@st.composite
def graphs_with_signed_weights(draw):
    """Mixed-sign, zero and tied edge weights."""
    graph, _ = draw(graphs_with_weights())
    value = st.one_of(
        st.sampled_from(_TIED_WEIGHTS),
        st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
    )
    weights = draw(st.lists(value, min_size=graph.n_edges, max_size=graph.n_edges))
    return graph, np.array(weights, dtype=np.float64)


@given(graphs_with_signed_weights())
@settings(max_examples=150, deadline=None)
def test_fast_peel_matches_reference_on_signed_weights(case):
    """Priorities that rise (negative weights) or tie must pop in reference order."""
    graph, weights = case
    expected, got = (
        greedy_peel(graph, weights, engine=engine)
        for engine in (PeelEngine.REFERENCE, PeelEngine.FAST)
    )
    assert np.array_equal(expected.user_mask, got.user_mask)
    assert np.array_equal(expected.merchant_mask, got.merchant_mask)
    assert np.array_equal(expected.densities, got.densities)
    assert expected.density == got.density
    assert expected.n_removed == got.n_removed


@given(graphs_with_weights())
@settings(max_examples=80, deadline=None)
def test_peel_density_at_least_initial(case):
    graph, weights = case
    result = greedy_peel(graph, weights)
    if graph.n_nodes:
        assert result.density >= result.densities[0] - 1e-9


@given(graphs_with_weights())
@settings(max_examples=80, deadline=None)
def test_peel_density_matches_reported_maximum(case):
    graph, weights = case
    result = greedy_peel(graph, weights)
    if graph.n_nodes:
        assert result.density == max(result.densities)


@given(graphs_with_weights())
@settings(max_examples=80, deadline=None)
def test_peel_masks_consistent_with_counts(case):
    graph, weights = case
    result = greedy_peel(graph, weights)
    assert result.user_mask.shape == (graph.n_users,)
    assert result.merchant_mask.shape == (graph.n_merchants,)
    assert result.n_nodes == result.user_mask.sum() + result.merchant_mask.sum()


@given(graphs_with_weights())
@settings(max_examples=60, deadline=None)
def test_peel_density_equals_recomputed_density_on_prefix(case):
    graph, weights = case
    result = greedy_peel(graph, weights)
    if result.n_nodes == 0:
        return
    inside = result.edge_indices(graph)
    recomputed = float(weights[inside].sum()) / result.n_nodes
    assert abs(recomputed - result.density) < 1e-9


@given(graphs_with_weights())
@settings(max_examples=40, deadline=None)
def test_peel_invariant_under_node_relabelling(case):
    """Permuting user ids must not change the best density found.

    Greedy peeling breaks priority ties by node id, so with tied
    priorities the result legitimately depends on the labelling (e.g.
    several unit-weight edges). Distinct power-of-two edge weights make
    every node's priority a unique subset sum at every step — the only
    possible ties (isolated nodes at 0, and a degree-matched user/merchant
    pair sharing the exact same edges) provably cannot alter the density
    trajectory — so the invariance holds exactly.
    """
    graph, _ = case
    weights = 2.0 ** np.arange(graph.n_edges)
    result = greedy_peel(graph, weights)

    rng = np.random.default_rng(0)
    perm = rng.permutation(graph.n_users)
    remapped = BipartiteGraph(
        graph.n_users,
        graph.n_merchants,
        perm[graph.edge_users],
        graph.edge_merchants,
    )
    permuted = greedy_peel(remapped, weights)
    assert abs(result.density - permuted.density) < 1e-9


@given(
    st.lists(st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False), min_size=1, max_size=25)
)
@settings(max_examples=100, deadline=None)
def test_truncation_rules_stay_in_bounds(series):
    k = SecondDifferenceRule().truncate(series)
    assert 1 <= k <= len(series)


@given(graphs_with_weights())
@settings(max_examples=40, deadline=None)
def test_metric_density_permutation_invariant(case):
    graph, _ = case
    metric = LogWeightedDensity()
    base = metric.density(graph)
    rng = np.random.default_rng(1)
    perm = rng.permutation(graph.n_edges)
    shuffled = BipartiteGraph(
        graph.n_users,
        graph.n_merchants,
        graph.edge_users[perm],
        graph.edge_merchants[perm],
    )
    assert abs(metric.density(shuffled) - base) < 1e-9


@given(graphs_with_weights())
@settings(max_examples=40, deadline=None)
def test_average_degree_density_formula(case):
    graph, _ = case
    metric = AverageDegreeDensity()
    if graph.n_nodes:
        assert abs(metric.density(graph) - graph.n_edges / graph.n_nodes) < 1e-12
