"""Members built as disjoint unions: the kept removal order against the reference.

From one live-node block to the next the kernel re-peels only the connected
components that held the last block's edges, and merges the kept removal
order of the others back in by (key, node id). The members here are
disjoint unions of small parts — complete blocks with tied weights, stars,
paths and sparse random parts — with node ids and edges shuffled together,
so a block sits in a few components while the rest keep their order, and
parts tie on key across components. Every block must match the reference
engine bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fdet import AverageDegreeDensity, Fdet, FdetConfig, WeightPolicy
from repro.fdet import batched
from repro.fdet._native import native_available
from repro.graph import BipartiteGraph
from repro.sampling import materialize_plan
from repro.sampling.base import SamplePlan

# the block-loop suite's helpers: tied weight values, metrics, configs and
# the bitwise comparison (its directory is on sys.path under pytest)
from test_block_loop_properties import (
    _METRICS,
    _POSITIVE,
    _SIGNED,
    assert_bitwise,
    fdet_configs,
    reference,
)

pytestmark = pytest.mark.skipif(
    not native_available(), reason="native kernel unavailable (no C compiler)"
)

_SCALES = (None, 0.5, 1.0 / 0.3, 3.0)
#: weights whose total over n nodes turns subnormal as blocks leave, so a
#: live-node block can be followed by one that peels the full node set
_TINY = (1e-300, 3e-301, 1e-305, 1e-310, 5e-324)


@st.composite
def parts(draw):
    """One part as ``(n_users, n_merchants, edges)`` in its own node ids."""
    kind = draw(st.sampled_from(("block", "star", "path", "sparse")))
    if kind == "block":
        n_users, n_merchants = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        return n_users, n_merchants, [(u, m) for u in range(n_users) for m in range(n_merchants)]
    if kind == "star":
        leaves = draw(st.integers(1, 6))
        if draw(st.booleans()):
            return 1, leaves, [(0, m) for m in range(leaves)]
        return leaves, 1, [(u, 0) for u in range(leaves)]
    if kind == "path":
        # user 0, merchant 0, user 1, merchant 1, ...: edge i joins the
        # i-th and (i+1)-th node of that walk
        length = draw(st.integers(1, 8))
        edges = [((i + 1) // 2, i // 2) for i in range(length)]
        return length // 2 + 1, (length + 1) // 2, edges
    n_users, n_merchants = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    pair = st.tuples(st.integers(0, n_users - 1), st.integers(0, n_merchants - 1))
    return n_users, n_merchants, draw(st.lists(pair, min_size=1, max_size=8))


@st.composite
def part_weights(draw, kind: str, n_edges: int):
    """One part's edge weights: tied within the part, or drawn per edge."""
    if kind == "tied" and draw(st.booleans()):
        return [draw(st.sampled_from(_POSITIVE))] * n_edges
    value = {
        "tied": st.sampled_from(_POSITIVE),
        "positive": st.one_of(st.sampled_from(_POSITIVE), st.floats(0.01, 10.0)),
        "signed": st.sampled_from(_SIGNED),
        "tiny": st.sampled_from(_TINY),
    }[kind]
    return draw(st.lists(value, min_size=n_edges, max_size=n_edges))


@st.composite
def disjoint_unions(draw, edgeless: bool = False):
    """2–6 parts side by side, with node ids and edge order shuffled.

    With ``edgeless``, up to three users and three merchants without an
    edge join the graph, as ``Fdet.detect`` keeps them.
    """
    kind = draw(st.sampled_from(("unweighted", "tied", "positive", "signed", "tiny")))
    users, merchants, weights = [], [], []
    n_users = n_merchants = 0
    for part_users, part_merchants, edges in draw(st.lists(parts(), min_size=2, max_size=6)):
        users += [n_users + u for u, _ in edges]
        merchants += [n_merchants + m for _, m in edges]
        if kind != "unweighted":
            weights += draw(part_weights(kind, len(edges)))
        n_users += part_users
        n_merchants += part_merchants
    if edgeless:
        n_users += draw(st.integers(0, 3))
        n_merchants += draw(st.integers(0, 3))
    user_ids = np.array(draw(st.permutations(range(n_users))))
    merchant_ids = np.array(draw(st.permutations(range(n_merchants))))
    order = np.array(draw(st.permutations(range(len(users)))))
    return BipartiteGraph(
        n_users,
        n_merchants,
        user_ids[np.array(users)][order],
        merchant_ids[np.array(merchants)][order],
        np.array(weights)[order] if weights else None,
    )


def edge_plan(edge_ids, scale) -> SamplePlan:
    return SamplePlan(
        kind="edges", edge_indices=np.asarray(edge_ids, dtype=np.int64), weight_scale=scale
    )


def assert_members_match(graph: BipartiteGraph, config: FdetConfig, plans) -> None:
    detections = batched.detect_many(graph, plans, config)
    assert detections is not None
    expected = reference(config)
    for plan, detection in zip(plans, detections):
        assert detection is not None
        assert_bitwise(expected.detect(materialize_plan(graph, plan)), detection.result)


@given(disjoint_unions(), fdet_configs, st.data())
@settings(max_examples=200, deadline=None)
def test_detect_many_matches_reference_on_disjoint_unions(graph, config, data):
    keep = data.draw(st.lists(st.booleans(), min_size=graph.n_edges, max_size=graph.n_edges))
    plans = [
        edge_plan(np.arange(graph.n_edges), data.draw(st.sampled_from(_SCALES))),
        edge_plan(np.flatnonzero(keep), data.draw(st.sampled_from(_SCALES))),
    ]
    assert_members_match(graph, config, plans)


@given(disjoint_unions(edgeless=True), fdet_configs)
@settings(max_examples=200, deadline=None)
def test_fdet_detect_matches_reference_on_disjoint_unions(graph, config):
    assert_bitwise(reference(config).detect(graph), Fdet(config).detect(graph))


def components(n_users: int, parts_edges) -> BipartiteGraph:
    """A graph of the given parts, each a list of (user, merchant) edges."""
    edges = [edge for part in parts_edges for edge in part]
    users, merchants = np.array(edges).T
    return BipartiteGraph(n_users, int(merchants.max()) + 1, users, merchants)


def whole_component_graph() -> tuple[BipartiteGraph, set[int], set[int]]:
    """A 4 x 4 complete block beside sparser components.

    The first block is that whole component, so its removal leaves every
    live node in a component the block did not touch: the next block
    re-peels nothing and is the merge of the kept order alone. Returns the
    graph and the block's users and merchants.
    """
    block = [(u, m) for u in (1, 4, 6, 9) for m in (0, 3, 5, 7)]
    star = [(0, m) for m in (1, 2, 4)]
    path = [(2, 6), (3, 6), (3, 8)]
    pair = [(5, 9), (7, 9), (8, 10)]
    return components(10, [path, block, star, pair]), {1, 4, 6, 9}, {0, 3, 5, 7}


@pytest.mark.parametrize("metric", _METRICS, ids=["log-weighted", "average-degree"])
@pytest.mark.parametrize("policy", WeightPolicy.ALL)
def test_block_that_is_a_whole_component(policy, metric):
    graph, block_users, block_merchants = whole_component_graph()
    config = FdetConfig(max_blocks=6, weight_policy=policy, metric=metric)
    expected = reference(config).detect(graph)
    first = expected.all_blocks[0]
    assert set(first.user_labels) == block_users
    assert set(first.merchant_labels) == block_merchants
    assert first.n_edges == 16
    assert expected.n_blocks >= 3
    assert_bitwise(expected, Fdet(config).detect(graph))
    assert_members_match(graph, config, [edge_plan(np.arange(graph.n_edges), None)])


def partly_carved_graph() -> BipartiteGraph:
    """A 3 x 3 block whose user 0 also leads into a 2 x 2 block, beside a star and a pair.

    Block 0 is the 3 x 3 block and leaves user 0 live, so what is left of
    its component (user 0 and the 2 x 2 block) must be re-peeled, not kept:
    its nodes' keys changed. Block 1 is the 2 x 2 block.
    """
    block = [(u, m) for u in (0, 1, 2) for m in (0, 1, 2)]
    rest = [(0, 3), (3, 3), (3, 4), (7, 3), (7, 4)]
    star = [(4, 5), (4, 6)]
    pair = [(5, 7), (6, 7)]
    return components(8, [block, rest, star, pair])


@pytest.mark.parametrize("metric", _METRICS, ids=["log-weighted", "average-degree"])
@pytest.mark.parametrize("policy", WeightPolicy.ALL)
def test_block_that_takes_part_of_a_component(policy, metric):
    graph = partly_carved_graph()
    config = FdetConfig(max_blocks=6, weight_policy=policy, metric=metric)
    expected = reference(config).detect(graph)
    first, second = expected.all_blocks[:2]
    assert (set(first.user_labels), set(first.merchant_labels)) == ({0, 1, 2}, {0, 1, 2})
    assert (set(second.user_labels), set(second.merchant_labels)) == ({3, 7}, {3, 4})
    assert_bitwise(expected, Fdet(config).detect(graph))
    assert_members_match(graph, config, [edge_plan(np.arange(graph.n_edges), None)])


def tied_components_graph() -> BipartiteGraph:
    """Single edges and a three-user star beside the path u5–m4–u7–m5–u8.

    Unweighted: under average degree, block 0 is the path's middle
    (u7, u8, m4, m5), which leaves (u5, m4) — the one component the next
    block re-peels. Its nodes tie on key with the kept single edges (u0, m0)
    and (u1, m1), so node ids decide between the kept order and the new one.
    """
    edges = [(0, 0), (1, 1), (2, 2), (3, 2), (4, 2), (6, 3), (5, 4), (7, 4), (7, 5), (8, 5)]
    return components(9, [edges])


@pytest.mark.parametrize("policy", WeightPolicy.ALL)
def test_components_tied_on_key_pop_in_node_order(policy):
    graph = tied_components_graph()
    config = FdetConfig(max_blocks=6, weight_policy=policy, metric=AverageDegreeDensity())
    expected = reference(config).detect(graph)
    first, second = expected.all_blocks[:2]
    assert (set(first.user_labels), set(first.merchant_labels)) == ({7, 8}, {4, 5})
    # the lower ids pop first: (u0, m0) and (u1, m1) leave the second block
    # and (u5, m4) stays in it
    assert {5, 6} <= set(second.user_labels) and not {0, 1} & set(second.user_labels)
    assert_bitwise(expected, Fdet(config).detect(graph))
    assert_members_match(graph, config, [edge_plan(np.arange(graph.n_edges), None)])


def live_then_full_graph() -> BipartiteGraph:
    """A 3 x 3 block of weight 1e-300 beside a star and a path of weight 1e-310.

    Block 0 peels the live nodes and carves out the block. What is left
    weighs so little that ``total / n`` is subnormal, so block 1 peels the
    full member node set, and must ignore the kept order of the star and
    the path.
    """
    block = [(u, m) for u in (0, 2, 4) for m in (0, 1, 2)]
    rest = [(1, 3), (1, 4), (3, 5), (5, 5), (5, 6)]
    users, merchants = np.array(block + rest).T
    weights = [1e-300] * len(block) + [1e-310] * len(rest)
    return BipartiteGraph(6, 7, users, merchants, weights)


@pytest.mark.parametrize("metric", _METRICS, ids=["log-weighted", "average-degree"])
@pytest.mark.parametrize("policy", WeightPolicy.ALL)
def test_live_node_block_then_full_node_block(policy, metric):
    graph = live_then_full_graph()
    config = FdetConfig(max_blocks=5, weight_policy=policy, metric=metric)
    expected = reference(config).detect(graph)
    assert expected.n_blocks == 2
    assert (set(expected.all_blocks[1].user_labels), expected.all_blocks[1].n_edges) == (
        {1, 3, 5},
        5,
    )
    assert_bitwise(expected, Fdet(config).detect(graph))
    assert_members_match(graph, config, [edge_plan(np.arange(graph.n_edges), None)])
