"""Engine parity: the fast backend must match the reference bit for bit.

Sweeps random Chung-Lu graphs, injected-block graphs, tie-heavy complete
blocks, multigraphs, weighted graphs and prior-carrying peels, asserting
the ``fast`` engine's native kernel returns masks, densities, ``n_removed``
and the full densities series identical to ``engine="reference"`` — and
that ``Fdet.detect`` matches the seed's rebuild-per-block formulation
under both weight policies.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import FraudBlockSpec, chung_lu_bipartite, inject_fraud_blocks, uniform_bipartite
from repro.fdet import (
    AverageDegreeDensity,
    Fdet,
    FdetConfig,
    LogWeightedDensity,
    PeelEngine,
    WeightPolicy,
    greedy_peel,
)
from repro.fdet._native import native_available
from repro.graph import BipartiteGraph


@pytest.fixture(params=["native"])
def fast_core(request):
    """The fast engine's native kernel; skipped on hosts without one."""
    if not native_available():
        pytest.skip("native kernel unavailable (no C compiler)")
    return request.param


def assert_peel_parity(graph, edge_weights, user_weights=None, merchant_weights=None):
    reference = greedy_peel(
        graph, edge_weights, user_weights, merchant_weights, engine=PeelEngine.REFERENCE
    )
    fast = greedy_peel(
        graph, edge_weights, user_weights, merchant_weights, engine=PeelEngine.FAST
    )
    assert np.array_equal(reference.user_mask, fast.user_mask)
    assert np.array_equal(reference.merchant_mask, fast.merchant_mask)
    assert reference.density == fast.density  # bitwise, no tolerance
    assert reference.n_removed == fast.n_removed
    assert np.array_equal(reference.densities, fast.densities)
    return reference


class TestPeelParity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize(
        "n_users,n_merchants,n_edges",
        [(30, 12, 80), (200, 80, 600), (500, 200, 2_000)],
    )
    def test_chung_lu_sweep(self, fast_core, seed, n_users, n_merchants, n_edges):
        graph = chung_lu_bipartite(n_users, n_merchants, n_edges, rng=seed)
        assert_peel_parity(graph, LogWeightedDensity().edge_weights(graph))

    @pytest.mark.parametrize("seed", [0, 7])
    def test_injected_blocks(self, fast_core, seed):
        rng = np.random.default_rng(seed)
        background = uniform_bipartite(300, 150, 700, rng=rng)
        injection = inject_fraud_blocks(
            background,
            [
                FraudBlockSpec(n_users=20, n_merchants=8, density=0.9),
                FraudBlockSpec(n_users=10, n_merchants=5, density=0.7),
            ],
            rng,
        )
        graph = injection.graph
        assert_peel_parity(graph, LogWeightedDensity().edge_weights(graph))

    def test_tie_heavy_complete_block(self, fast_core):
        # every node in a complete block shares the same priority: pure
        # tie-breaking territory (smallest node id must pop first)
        graph = BipartiteGraph.from_edges(
            [(u, v) for u in range(12) for v in range(9)], n_users=12, n_merchants=9
        )
        result = assert_peel_parity(graph, AverageDegreeDensity().edge_weights(graph))
        assert result.n_removed == 0  # the whole clique is the densest prefix

    def test_two_equal_cliques_tie_break(self, fast_core):
        # two identical 4x3 cliques — ties span disconnected components
        edges = [(u, v) for u in range(4) for v in range(3)]
        edges += [(4 + u, 3 + v) for u in range(4) for v in range(3)]
        graph = BipartiteGraph.from_edges(edges, n_users=8, n_merchants=6)
        assert_peel_parity(graph, AverageDegreeDensity().edge_weights(graph))

    def test_multigraph_parallel_edges(self, fast_core):
        edges = [(0, 0), (0, 0), (0, 1), (1, 0), (1, 1), (1, 1), (2, 1), (2, 1)]
        graph = BipartiteGraph.from_edges(edges, n_users=3, n_merchants=2)
        assert_peel_parity(graph, LogWeightedDensity().edge_weights(graph))

    def test_weighted_graph(self, fast_core):
        rng = np.random.default_rng(5)
        base = chung_lu_bipartite(100, 40, 300, rng=3)
        graph = base.with_weights(rng.uniform(0.1, 4.0, size=base.n_edges))
        assert_peel_parity(graph, LogWeightedDensity().edge_weights(graph))

    def test_zero_weight_edges(self, fast_core):
        graph = chung_lu_bipartite(60, 25, 150, rng=9)
        weights = LogWeightedDensity().edge_weights(graph)
        weights[::3] = 0.0  # zero-weight decrements exercise equal-entry ties
        assert_peel_parity(graph, weights)

    def test_node_priors(self, fast_core):
        graph = chung_lu_bipartite(80, 30, 200, rng=11)
        rng = np.random.default_rng(13)
        assert_peel_parity(
            graph,
            LogWeightedDensity().edge_weights(graph),
            user_weights=rng.uniform(0.0, 2.0, size=graph.n_users),
            merchant_weights=rng.uniform(0.0, 2.0, size=graph.n_merchants),
        )

    def test_edgeless_and_tiny_graphs(self, fast_core):
        for graph in (
            BipartiteGraph.empty(3, 2),
            BipartiteGraph.empty(0, 0),
            BipartiteGraph.from_edges([(0, 0)]),
        ):
            assert_peel_parity(graph, np.ones(graph.n_edges, dtype=np.float64))


def _seed_detect(graph, config):
    """The pre-refactor FDET loop: rebuild the residual graph per block."""
    frozen = None
    if config.weight_policy == WeightPolicy.FROZEN:
        frozen = graph.merchant_degrees()
    blocks = []
    current = graph
    first_density = None
    for _ in range(config.max_blocks):
        if current.is_empty:
            break
        edge_weights = config.metric.edge_weights(current, frozen)
        peel = greedy_peel(
            current,
            edge_weights,
            user_weights=config.metric.user_weights(current),
            merchant_weights=config.metric.merchant_weights(current),
            engine=PeelEngine.REFERENCE,
        )
        block_edges = peel.edge_indices(current)
        if block_edges.size < config.min_block_edges:
            break
        blocks.append(
            (
                np.sort(current.user_labels[peel.user_mask]),
                np.sort(current.merchant_labels[peel.merchant_mask]),
                peel.density,
                int(block_edges.size),
            )
        )
        if first_density is None:
            first_density = peel.density
        elif (
            config.min_density_ratio > 0.0
            and peel.density < config.min_density_ratio * first_density
        ):
            break
        current = current.remove_edges(block_edges)
    return blocks


class TestIncrementalDetectParity:
    @pytest.mark.parametrize("policy", WeightPolicy.ALL)
    @pytest.mark.parametrize("engine", PeelEngine.ALL)
    def test_matches_seed_behaviour(self, fast_core, policy, engine):
        graph = chung_lu_bipartite(400, 160, 1_500, rng=2)
        config = FdetConfig(max_blocks=10, weight_policy=policy, engine=engine)
        expected = _seed_detect(graph, config)
        result = Fdet(config).detect(graph)
        assert len(result.all_blocks) == len(expected)
        for block, (user_labels, merchant_labels, density, n_edges) in zip(
            result.all_blocks, expected
        ):
            assert np.array_equal(block.user_labels, user_labels)
            assert np.array_equal(block.merchant_labels, merchant_labels)
            assert block.density == density
            assert block.n_edges == n_edges

    @pytest.mark.parametrize("policy", WeightPolicy.ALL)
    def test_weighted_graph_detect(self, fast_core, policy):
        base = chung_lu_bipartite(150, 60, 500, rng=4)
        graph = base.with_weights(np.random.default_rng(6).uniform(0.2, 3.0, base.n_edges))
        config = FdetConfig(max_blocks=6, weight_policy=policy)
        expected = _seed_detect(graph, config)
        result = Fdet(config).detect(graph)
        assert [b.density for b in result.all_blocks] == [row[2] for row in expected]

    def test_min_density_ratio_early_stop(self, fast_core):
        graph = chung_lu_bipartite(200, 80, 700, rng=8)
        config = FdetConfig(max_blocks=12, min_density_ratio=0.5)
        expected = _seed_detect(graph, config)
        result = Fdet(config).detect(graph)
        assert len(result.all_blocks) == len(expected)
