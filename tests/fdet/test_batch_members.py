"""Batched members: independence across calls, and node compaction corners.

A member's output must not depend on what else runs in the same
``repro_fdet_batch`` call: the thread count, the members before it, or
whether it runs alone. Node compaction maps each member's parent node ids
to member ids through presence bitsets; the corners here put member nodes
on the first and last parent id of each side, leave parent nodes without
an edge at both ends, cover every parent node, and use side sizes on both
sides of a 64-bit word boundary, with int32 and int64 parent columns.
Every member must match the reference engine bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import chung_lu_bipartite
from repro.fdet import Fdet, FdetConfig, WeightPolicy
from repro.fdet import batched
from repro.fdet._native import native_available
from repro.graph import BipartiteGraph, GraphStore
from repro.sampling import materialize_plan
from repro.sampling.base import SamplePlan

from test_block_loop_properties import assert_bitwise, reference

pytestmark = pytest.mark.skipif(
    not native_available(), reason="native kernel unavailable (no C compiler)"
)


def edge_plan(edge_ids, scale=None) -> SamplePlan:
    return SamplePlan(
        kind="edges", edge_indices=np.asarray(edge_ids, dtype=np.int64), weight_scale=scale
    )


def outputs(detection) -> tuple:
    """Everything a member returns, as bytes and ints."""
    result = detection.result
    return (
        result.densities.tobytes(),
        result.edge_counts.tobytes(),
        np.ascontiguousarray(result.block_rows).tobytes(),
        result.user_labels.tobytes(),
        result.merchant_labels.tobytes(),
        result.k_hat,
        detection.detected_user_indices.tobytes(),
        detection.detected_merchant_indices.tobytes(),
    )


def run(graph, plans, config, n_threads=1) -> list[tuple]:
    detections = batched.detect_many(graph, plans, config, n_threads=n_threads)
    assert detections is not None and all(d is not None for d in detections)
    return [outputs(d) for d in detections]


class TestBatchIndependence:
    @pytest.fixture(scope="class")
    def graph(self):
        g = chung_lu_bipartite(600, 200, 5000, rng=17)
        return g.with_weights(np.random.default_rng(4).integers(1, 9, size=g.n_edges) / 4.0)

    @pytest.fixture(scope="class")
    def plans(self, graph):
        rng = np.random.default_rng(29)
        small = [np.sort(rng.choice(graph.n_edges, size, replace=False)) for size in (40, 90, 150)]
        big = np.flatnonzero(rng.random(graph.n_edges) < 0.8)
        shuffled = rng.permutation(graph.n_edges)[:2500]
        return [
            edge_plan(small[0]),
            edge_plan(small[1], 0.5),
            edge_plan([]),
            edge_plan(small[2]),
            edge_plan(big, 1.25),  # a big member after small ones
            edge_plan(shuffled),
            edge_plan([]),
        ]

    @pytest.mark.parametrize("policy", WeightPolicy.ALL)
    def test_members_do_not_depend_on_their_batch(self, graph, plans, policy):
        config = FdetConfig(max_blocks=12, weight_policy=policy)
        together = run(graph, plans, config)
        assert together[2][0] == b"" and together[2][5] == 0  # the empty member
        assert run(graph, plans, config, n_threads=2) == together
        assert run(graph, plans[::-1], config)[::-1] == together
        assert [run(graph, [plan], config)[0] for plan in plans] == together

    def test_members_match_the_reference(self, graph, plans):
        config = FdetConfig(max_blocks=12)
        detections = batched.detect_many(graph, plans, config, n_threads=2)
        for plan, detection in zip(plans, detections):
            expected = reference(config).detect(materialize_plan(graph, plan))
            assert_bitwise(expected, detection.result)


#: side sizes at, just past and well short of a 64-bit word boundary
_SIDES = [(130, 65), (64, 128), (3, 200), (1, 1)]


def corner_graph(n_users: int, n_merchants: int, edgeless: int, seed: int) -> BipartiteGraph:
    """Weighted edges on every middle id of both sides, in shuffled order.

    ``edgeless`` ids at each end of both sides get no edge (a side too small
    for that keeps only its first id); with none, the first and last ids of
    each side have edges.
    """
    rng = np.random.default_rng(seed)

    def middle(n: int) -> np.ndarray:
        return np.arange(edgeless, n - edgeless) if n > 2 * edgeless else np.arange(1)

    users, merchants = middle(n_users), middle(n_merchants)
    extra = 3 * max(users.size, merchants.size)
    # one edge for every middle user and every middle merchant, then extras
    edge_users = np.concatenate([users, rng.choice(users, merchants.size + extra)])
    edge_merchants = np.concatenate(
        [rng.choice(merchants, users.size), merchants, rng.choice(merchants, extra)]
    )
    order = rng.permutation(edge_users.size)
    weights = rng.integers(1, 16, size=edge_users.size) / 2.0
    return BipartiteGraph(
        n_users, n_merchants, edge_users[order], edge_merchants[order], weights[order]
    )


def column_variants(graph: BipartiteGraph) -> dict[str, BipartiteGraph]:
    """The graph with int64 parent columns, and with int32/float32 ones."""
    compact = GraphStore.from_graph(graph).compact().to_graph()
    assert compact.edge_users.dtype == np.int32
    return {"int64": graph, "int32": compact}


def corner_plans(graph: BipartiteGraph, seed: int) -> list[SamplePlan]:
    """All edges; the edges at the first and last id of each side with a
    few others; and random halves."""
    rng = np.random.default_rng(seed)
    users, merchants = graph.edge_users, graph.edge_merchants
    ends = (
        (users == users.min())
        | (users == users.max())
        | (merchants == merchants.min())
        | (merchants == merchants.max())
    )
    corners = np.flatnonzero(ends | (rng.random(graph.n_edges) < 0.1))
    halves = [np.flatnonzero(rng.random(graph.n_edges) < 0.5) for _ in range(2)]
    return [edge_plan(np.arange(graph.n_edges)), edge_plan(rng.permutation(corners))] + [
        edge_plan(h) for h in halves
    ]


class TestCompactionCorners:
    @pytest.mark.parametrize("sides", _SIDES, ids=[f"{u}x{m}" for u, m in _SIDES])
    @pytest.mark.parametrize("edgeless", [0, 2], ids=["touched-ends", "edgeless-ends"])
    @pytest.mark.parametrize("columns", ["int64", "int32"])
    def test_members_match_the_reference(self, sides, edgeless, columns):
        n_users, n_merchants = sides
        graph = column_variants(corner_graph(n_users, n_merchants, edgeless, seed=n_users))[columns]
        plans = corner_plans(graph, seed=n_merchants)
        config = FdetConfig(max_blocks=10)
        detections = batched.detect_many(graph, plans, config)
        for plan, detection in zip(plans, detections):
            # node labels too: the kept ids name the member's parent nodes in order
            expected = reference(config).detect(materialize_plan(graph, plan))
            assert_bitwise(expected, detection.result)
        if edgeless == 0:
            # the all-edges member touches every parent node
            full = detections[0].result
            assert full.user_labels.size == n_users and full.merchant_labels.size == n_merchants

    @pytest.mark.parametrize("sides", _SIDES, ids=[f"{u}x{m}" for u, m in _SIDES])
    @pytest.mark.parametrize("columns", ["int64", "int32"])
    def test_whole_graph_with_edgeless_ends(self, sides, columns):
        """``Fdet.detect`` keeps every parent node: the edgeless ones too."""
        graph = column_variants(corner_graph(*sides, edgeless=2, seed=7))[columns]
        config = FdetConfig(max_blocks=10)
        assert_bitwise(reference(config).detect(graph), Fdet(config).detect(graph))
