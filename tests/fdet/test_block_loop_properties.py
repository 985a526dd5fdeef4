"""Property-based parity of the kernel's FDET block loop with the reference.

From one live-node block to the next the kernel keeps each member's
removal order: it re-peels only the connected components that held the
last block's edges, and merges the kept order of the others back in by
(key, node id). A block that peels the full member node set, and the block
after one, peel every node. These tests run random small members through up
to 30 blocks, on both entry points of the batched kernel, and require every
block to match the reference engine bit for bit. Their graphs are mostly
one component or a few; ``test_component_merge.py`` builds members as
disjoint unions, so that the merge does real work.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fdet import (
    AverageDegreeDensity,
    Fdet,
    FdetConfig,
    LogWeightedDensity,
    PeelEngine,
    WeightPolicy,
)
from repro.fdet import batched
from repro.fdet._native import native_available
from repro.graph import BipartiteGraph
from repro.sampling import materialize_plan
from repro.sampling.base import SamplePlan

pytestmark = pytest.mark.skipif(
    not native_available(), reason="native kernel unavailable (no C compiler)"
)

#: repeated values so initial keys tie and node ids break the ties
_POSITIVE = (0.5, 1.0, 2.0)
_SIGNED = (-2.0, -1.0, -0.0, 0.0) + _POSITIVE
_METRICS = (LogWeightedDensity(), AverageDegreeDensity())


def assert_bitwise(expected, got):
    """Same k̂, and per block the same density bits, node rows and edge count."""
    assert got.k_hat == expected.k_hat
    assert np.array_equal(got.densities.view(np.int64), expected.densities.view(np.int64))
    assert np.array_equal(got.block_rows, expected.block_rows)
    assert np.array_equal(got.edge_counts, expected.edge_counts)
    assert np.array_equal(got.user_labels, expected.user_labels)
    assert np.array_equal(got.merchant_labels, expected.merchant_labels)


def reference(config: FdetConfig) -> Fdet:
    return Fdet(replace(config, engine=PeelEngine.REFERENCE))


@st.composite
def weighted_graphs(draw):
    """Small multigraphs: unweighted, positive, or with zero and negative weights."""
    n_users = draw(st.integers(1, 12))
    n_merchants = draw(st.integers(1, 10))
    n_edges = draw(st.integers(1, 60))
    users = draw(st.lists(st.integers(0, n_users - 1), min_size=n_edges, max_size=n_edges))
    merchants = draw(
        st.lists(st.integers(0, n_merchants - 1), min_size=n_edges, max_size=n_edges)
    )
    kind = draw(st.sampled_from(("unweighted", "positive", "signed")))
    weights = None
    if kind != "unweighted":
        tied, low = (_POSITIVE, 0.01) if kind == "positive" else (_SIGNED, -10.0)
        value = st.one_of(st.sampled_from(tied), st.floats(low, 10.0))
        weights = draw(st.lists(value, min_size=n_edges, max_size=n_edges))
    return BipartiteGraph(n_users, n_merchants, users, merchants, weights)


fdet_configs = st.builds(
    FdetConfig,
    max_blocks=st.integers(1, 30),
    weight_policy=st.sampled_from(WeightPolicy.ALL),
    metric=st.sampled_from(_METRICS),
)


@st.composite
def members(draw):
    """A graph, a config, and one to three edge-subset plans over the graph."""
    graph = draw(weighted_graphs())
    plans = []
    for _ in range(draw(st.integers(1, 3))):
        keep = draw(st.lists(st.booleans(), min_size=graph.n_edges, max_size=graph.n_edges))
        scale = draw(st.sampled_from((None, 0.5, 1.0 / 0.3, 3.0)))
        plans.append(
            SamplePlan(
                kind="edges",
                edge_indices=np.flatnonzero(keep).astype(np.int64),
                weight_scale=scale,
            )
        )
    return graph, draw(fdet_configs), plans


@given(members())
@settings(max_examples=200, deadline=None)
def test_detect_many_matches_reference(case):
    graph, config, plans = case
    native = batched.detect_many(graph, plans, config)
    assert native is not None
    expected = reference(config)
    for plan, detection in zip(plans, native):
        assert detection is not None
        assert_bitwise(expected.detect(materialize_plan(graph, plan)), detection.result)


@given(weighted_graphs(), fdet_configs)
@settings(max_examples=200, deadline=None)
def test_fdet_detect_matches_reference(graph, config):
    assert_bitwise(reference(config).detect(graph), Fdet(config).detect(graph))


def full_then_live_graph() -> tuple[BipartiteGraph, tuple[int, int]]:
    """A zero-weight edge inside the densest block, then positive blocks.

    While the zero-weight edge is alive a block peels the full node set;
    the first block carves it out, so the blocks after it peel the live
    nodes — the second all of them, the later ones only the components
    the block before touched. Returns the graph and the zero-weight edge's
    (user, merchant).
    """
    rng = np.random.default_rng(5)
    edges = [(u, m) for u in range(6) for m in range(5)]  # the 6 x 5 dense block
    weights = [1.0] * len(edges)
    weights[7] = 0.0
    # three looser blocks of tied weights, then a sparse tail
    for first_user, first_merchant in ((6, 5), (12, 9), (18, 13)):
        for u in range(first_user, first_user + 6):
            for m in rng.choice(4, size=3, replace=False):
                edges.append((u, first_merchant + int(m)))
                weights.append(float(rng.choice(_POSITIVE)))
    for u in range(24, 40):
        edges.append((u, int(rng.integers(0, 17))))
        weights.append(float(rng.uniform(0.1, 3.0)))
    users, merchants = np.array(edges).T
    return BipartiteGraph(40, 17, users, merchants, weights), edges[7]


@pytest.mark.parametrize("metric", _METRICS, ids=["log-weighted", "average-degree"])
@pytest.mark.parametrize("policy", WeightPolicy.ALL)
def test_full_node_block_then_live_node_blocks(policy, metric):
    graph, (zero_user, zero_merchant) = full_then_live_graph()
    config = FdetConfig(max_blocks=12, weight_policy=policy, metric=metric)
    expected = reference(config).detect(graph)
    first = expected.all_blocks[0]
    # the zero-weight edge leaves with the first block, and blocks follow it
    assert zero_user in first.user_labels and zero_merchant in first.merchant_labels
    assert expected.n_blocks >= 4
    assert_bitwise(expected, Fdet(config).detect(graph))
    plan = SamplePlan(kind="edges", edge_indices=np.arange(graph.n_edges, dtype=np.int64))
    (detection,) = batched.detect_many(graph, [plan], config)
    assert_bitwise(reference(config).detect(materialize_plan(graph, plan)), detection.result)
