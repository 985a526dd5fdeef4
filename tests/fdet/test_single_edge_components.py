"""Single-edge components, written into the kept order without a peel.

A block that keeps nothing of the removal order before — block 0, or the
block after one that peeled the full member node set — takes its pairs
(single-edge components: a user and a merchant of degree 1 joined by one
edge) out of the peel and writes them straight into the kept order: the
pairs by (key(w), user), each user followed by its merchant at +0.0. The
members here hold pairs alone, beside blocks and stars, at subnormal and
huge weights, behind a block 0 that peels every node, in late blocks, and
in random-edge samples at small ratios. Every block must match the
reference engine bit for bit, through ``detect_many`` and through
``Fdet.detect``, which keeps the nodes without an edge.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import chung_lu_bipartite
from repro.fdet import AverageDegreeDensity, Fdet, FdetConfig, WeightPolicy
from repro.fdet import batched
from repro.fdet._native import native_available
from repro.graph import BipartiteGraph
from repro.sampling import RandomEdgeSampler, materialize_plan, resolve_rng

# the block-loop and component-merge suites' helpers (their directory is on
# sys.path under pytest)
from test_block_loop_properties import _METRICS, assert_bitwise, fdet_configs, reference
from test_component_merge import assert_members_match, edge_plan

pytestmark = pytest.mark.skipif(
    not native_available(), reason="native kernel unavailable (no C compiler)"
)

_METRIC_IDS = ["log-weighted", "average-degree"]

#: weights of nine pairs: tied, tied in groups, subnormal and huge finite
#: beside ordinary ones (whose totals stay finite and normal)
PAIR_WEIGHTS = {
    "unweighted": None,
    "tied": [2.0] * 9,
    "grouped": [0.5, 2.0, 2.0, 1.0, 2.0, 0.5, 3.0, 1.0, 2.0],
    "subnormal": [5e-324, 1e-310, 1.0, 2.0, 5e-324, 1.0, 2.0, 1e-310, 3.0],
    "huge": [1e307, 3e307, 1.0, 1e307, 2.0, 1e300, 1.0, 3e307, 2.0],
}


def shuffled_graph(n_users, n_merchants, edges, weights=None, edgeless=(2, 3), seed=0):
    """The edges with node ids and edge order shuffled, plus nodes without an edge.

    Shuffled ids put the pairs' users out of edge order, so a sort that
    broke ties by edge rather than by user would show.
    """
    rng = np.random.default_rng(seed)
    n_users, n_merchants = n_users + edgeless[0], n_merchants + edgeless[1]
    user_ids, merchant_ids = rng.permutation(n_users), rng.permutation(n_merchants)
    order = rng.permutation(len(edges))
    users, merchants = np.array(edges).T
    return BipartiteGraph(
        n_users,
        n_merchants,
        user_ids[users][order],
        merchant_ids[merchants][order],
        None if weights is None else np.asarray(weights, dtype=np.float64)[order],
    )


def assert_same(expected, got):
    """assert_bitwise, with NaN densities equal to NaN."""
    if np.isnan(expected.densities).any():
        assert got.k_hat == expected.k_hat
        assert np.array_equal(got.densities, expected.densities, equal_nan=True)
        assert np.array_equal(got.block_rows, expected.block_rows)
        assert np.array_equal(got.edge_counts, expected.edge_counts)
    else:
        assert_bitwise(expected, got)


def check_both_paths(graph, config, scales=(None, 0.5)):
    """``Fdet.detect`` and whole-graph ``detect_many`` members against the reference."""
    with np.errstate(over="ignore", invalid="ignore"):
        expected = reference(config).detect(graph)
        assert_same(expected, Fdet(config).detect(graph))
        plans = [edge_plan(np.arange(graph.n_edges), scale) for scale in scales]
        detections = batched.detect_many(graph, plans, config)
        for plan, detection in zip(plans, detections):
            want = reference(config).detect(materialize_plan(graph, plan))
            assert_same(want, detection.result)
    return expected


def pairs(first_user, first_merchant, count):
    return [(first_user + i, first_merchant + i) for i in range(count)]


@pytest.mark.parametrize("metric", _METRICS, ids=_METRIC_IDS)
@pytest.mark.parametrize("policy", WeightPolicy.ALL)
@pytest.mark.parametrize("kind", list(PAIR_WEIGHTS))
def test_members_of_pairs_only(kind, policy, metric):
    graph = shuffled_graph(9, 9, pairs(0, 0, 9), PAIR_WEIGHTS[kind], seed=1)
    check_both_paths(graph, FdetConfig(max_blocks=12, weight_policy=policy, metric=metric))


def pairs_beside_blocks_and_stars(weights_kind):
    """Nine pairs beside a 3 x 4 block, two stars and a path.

    The stars' leaves and the path's ends start at the pairs' key when
    unweighted, so pairs and peeled nodes tie across components.
    """
    block = [(u, m) for u in range(3) for m in range(4)]
    stars = [(3, 4 + m) for m in range(4)] + [(4 + u, 8) for u in range(4)]
    path = [(8, 9), (9, 9), (9, 10)]
    edges = block + stars + path + pairs(10, 11, 9)
    weights = PAIR_WEIGHTS[weights_kind]
    if weights is not None:
        weights = [1.0] * (len(edges) - 9) + weights
    return shuffled_graph(19, 20, edges, weights, seed=2)


@pytest.mark.parametrize("metric", _METRICS, ids=_METRIC_IDS)
@pytest.mark.parametrize("policy", WeightPolicy.ALL)
@pytest.mark.parametrize("kind", list(PAIR_WEIGHTS))
def test_pairs_beside_blocks_and_stars(kind, policy, metric):
    graph = pairs_beside_blocks_and_stars(kind)
    expected = check_both_paths(
        graph, FdetConfig(max_blocks=12, weight_policy=policy, metric=metric)
    )
    assert expected.n_blocks >= 2


@pytest.mark.parametrize("metric", _METRICS, ids=_METRIC_IDS)
@pytest.mark.parametrize("policy", WeightPolicy.ALL)
@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf], ids=["zero", "negative", "nan", "inf"])
def test_block_0_that_peels_every_node(bad, policy, metric):
    """One zero, negative, NaN or infinite weight: block 0 peels the full node set, pairs included."""
    edges = [(u, m) for u in range(3) for m in range(3)] + pairs(3, 3, 8)
    weights = [1.0] * len(edges)
    weights[-4] = bad  # on a pair
    graph = shuffled_graph(11, 11, edges, weights, seed=3)
    check_both_paths(graph, FdetConfig(max_blocks=8, weight_policy=policy, metric=metric))
    weights[-4], weights[4] = 1.0, bad  # inside the block
    graph = shuffled_graph(11, 11, edges, weights, seed=3)
    check_both_paths(graph, FdetConfig(max_blocks=8, weight_policy=policy, metric=metric))


@pytest.mark.parametrize("policy", WeightPolicy.ALL)
def test_late_block_takes_a_pair(policy):
    """Block 0 is a 3 x 3 block; block 1 is the heaviest pair, walked like any component."""
    edges = [(u, m) for u in range(3) for m in range(3)] + pairs(3, 3, 6)
    weights = [1.0] * 9 + [0.5, 2.5, 0.5, 0.75, 0.5, 0.5]
    graph = shuffled_graph(9, 9, edges, weights, seed=4)
    config = FdetConfig(max_blocks=8, weight_policy=policy, metric=AverageDegreeDensity())
    expected = check_both_paths(graph, config)
    first, second = expected.all_blocks[:2]
    assert (first.n_users, first.n_merchants) == (3, 3)
    assert (second.n_users, second.n_merchants, second.n_edges) == (1, 1, 1)
    assert expected.n_blocks >= 3


@pytest.mark.parametrize("metric", _METRICS, ids=_METRIC_IDS)
@pytest.mark.parametrize("policy", WeightPolicy.ALL)
def test_block_after_a_full_node_block_takes_new_pairs(policy, metric):
    """A zero weight in the 4 x 4 block makes block 0 peel every node.

    Block 1 keeps nothing, so it takes its pairs out of the peel: the old
    ones, now at other edge slots, and new ones — block users whose only
    edge left leads to a merchant of degree 1.
    """
    block = [(u, m) for u in range(4) for m in range(4)]
    # users 0 and 1 also hold a private merchant each, listed before the
    # block, so their last edge before block 0 is a block edge
    private = [(0, 4), (1, 5)]
    edges = private + block + pairs(4, 6, 5) + [(9, 11), (9, 12), (10, 12)]
    weights = [1.0] * len(edges)
    weights[len(private) + 5] = 0.0
    users, merchants = np.array(edges).T
    # in edge order, so the private edges lead
    graph = BipartiteGraph(11, 13, users, merchants, weights)
    expected = check_both_paths(
        graph, FdetConfig(max_blocks=8, weight_policy=policy, metric=metric)
    )
    assert set(expected.all_blocks[0].user_labels) >= {0, 1}
    assert expected.n_blocks >= 2


@st.composite
def res_members(draw):
    """A heavy-tailed graph and random-edge samples of it at S <= 0.05."""
    seed = draw(st.integers(0, 2**16))
    graph = chung_lu_bipartite(
        draw(st.integers(200, 600)), draw(st.integers(60, 240)), draw(st.integers(800, 3000)),
        rng=seed,
    )
    kind = draw(st.sampled_from(("unweighted", "tied", "positive")))
    if kind == "tied":
        graph = graph.with_weights(np.random.default_rng(seed).choice([0.5, 1.0, 2.0], graph.n_edges))
    elif kind == "positive":
        graph = graph.with_weights(np.random.default_rng(seed).uniform(0.01, 10.0, graph.n_edges))
    ratio = draw(st.sampled_from((0.01, 0.02, 0.05)))
    sampler = RandomEdgeSampler(ratio, reweight=draw(st.booleans()))
    return graph, sampler.plan_many(graph, 3, resolve_rng(seed)), draw(fdet_configs)


@given(res_members())
@settings(max_examples=60, deadline=None)
def test_res_samples_at_small_ratios(case):
    graph, plans, config = case
    assert_members_match(graph, config, plans)
    # the first sample as one graph over every parent node, most without an edge
    sample = materialize_plan(graph, plans[0])
    whole = BipartiteGraph(
        graph.n_users,
        graph.n_merchants,
        sample.user_labels[sample.edge_users],
        sample.merchant_labels[sample.edge_merchants],
        sample.edge_weights,
    )
    assert_bitwise(reference(config).detect(whole), Fdet(config).detect(whole))
