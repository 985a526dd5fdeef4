"""Unit & behavioural tests for the FDET detector (paper Algorithm 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import FraudBlockSpec, inject_fraud_blocks, uniform_bipartite
from repro.errors import DetectionError
from repro.fdet import (
    AverageDegreeDensity,
    Fdet,
    FdetConfig,
    FixedKRule,
    LogWeightedDensity,
    PeelEngine,
    WeightPolicy,
    greedy_peel,
)
from repro.graph import BipartiteGraph


class TestFdetConfig:
    def test_defaults(self):
        config = FdetConfig()
        assert config.max_blocks == 30
        assert config.weight_policy == WeightPolicy.REFRESH

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_blocks": 0},
            {"weight_policy": "bogus"},
            {"min_block_edges": 0},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(DetectionError):
            FdetConfig(**kwargs)


class TestFdetDetect:
    def test_single_clique_one_block(self, clique_graph):
        result = Fdet(FdetConfig(max_blocks=5)).detect(clique_graph)
        assert len(result.all_blocks) >= 1
        first = result.all_blocks[0]
        assert first.n_users == 5
        assert first.n_merchants == 4
        assert first.n_edges == 20

    def test_two_disjoint_cliques_found_in_density_order(self):
        edges = [(u, v) for u in range(6) for v in range(6)]  # big clique
        edges += [(6 + u, 6 + v) for u in range(3) for v in range(3)]  # small clique
        graph = BipartiteGraph.from_edges(edges, n_users=9, n_merchants=9)
        result = Fdet(FdetConfig(max_blocks=5, metric=AverageDegreeDensity())).detect(graph)
        assert len(result.all_blocks) >= 2
        first, second = result.all_blocks[0], result.all_blocks[1]
        assert set(first.user_labels.tolist()) == set(range(6))
        assert set(second.user_labels.tolist()) == {6, 7, 8}
        assert first.density > second.density

    def test_blocks_edge_disjoint(self, planted_graph):
        graph, _ = planted_graph
        result = Fdet(FdetConfig(max_blocks=6)).detect(graph)
        # edge-disjoint: total block edges cannot exceed the graph's edges
        assert sum(b.n_edges for b in result.all_blocks) <= graph.n_edges

    def test_empty_graph_no_blocks(self):
        result = Fdet().detect(BipartiteGraph.empty(4, 4))
        assert result.all_blocks == ()
        assert result.k_hat == 0
        assert result.detected_users().size == 0

    def test_max_blocks_respected(self, planted_graph):
        graph, _ = planted_graph
        result = Fdet(FdetConfig(max_blocks=2)).detect(graph)
        assert len(result.all_blocks) <= 2

    def test_densities_non_increasing_under_frozen_weights(self, planted_graph):
        """With frozen weights the greedy's best block can only get worse."""
        graph, _ = planted_graph
        result = Fdet(
            FdetConfig(max_blocks=8, weight_policy=WeightPolicy.FROZEN)
        ).detect(graph)
        densities = result.densities
        assert np.all(np.diff(densities) <= 1e-9)

    def test_truncation_bounds(self, planted_graph):
        graph, _ = planted_graph
        result = Fdet(FdetConfig(max_blocks=8)).detect(graph)
        assert 0 <= result.k_hat <= len(result.all_blocks)
        assert len(result.blocks) == result.k_hat

    def test_fixed_k_rule(self, planted_graph):
        graph, _ = planted_graph
        result = Fdet(FdetConfig(max_blocks=8, truncation=FixedKRule(2))).detect(graph)
        assert result.k_hat == min(2, len(result.all_blocks))

    def test_detected_users_union_and_k_override(self, planted_graph):
        graph, _ = planted_graph
        result = Fdet(FdetConfig(max_blocks=6)).detect(graph)
        all_users = result.detected_users(k=len(result.all_blocks))
        truncated = result.detected_users()
        assert set(truncated.tolist()) <= set(all_users.tolist())

    def test_total_density_objective(self, planted_graph):
        graph, _ = planted_graph
        result = Fdet(FdetConfig(max_blocks=6)).detect(graph)
        assert result.total_density() == pytest.approx(
            sum(b.density for b in result.blocks)
        )

    def test_no_density_ratio_stop(self, planted_graph):
        """Blocks are extracted until the edges or ``max_blocks`` run out,
        however far their density falls below the first block's."""
        graph, _ = planted_graph
        with pytest.raises(TypeError):
            FdetConfig(max_blocks=10, min_density_ratio=0.9)
        result = Fdet(FdetConfig(max_blocks=10)).detect(graph)
        assert result.n_blocks == 10 or int(result.edge_counts.sum()) == graph.n_edges
        assert result.densities.min() < 0.9 * result.densities[0]

    def test_planted_blocks_recovered_before_truncation_point(self):
        """Δ²-truncation keeps the fraud plateau, drops the noise floor.

        Definition 3's elbow needs a plateau-then-cliff score shape, i.e. at
        least ~3 comparable fraud blocks ahead of the background blocks —
        which is the regime the paper operates in (k̂ in the "few to few
        tens").
        """
        rng = np.random.default_rng(7)
        background = uniform_bipartite(400, 300, 400, rng=rng)
        specs = [
            FraudBlockSpec(20, 6, density=rho, reuse_merchant_fraction=0.0)
            for rho in (0.9, 0.8, 0.7, 0.6)
        ]
        injection = inject_fraud_blocks(background, specs, rng)
        result = Fdet(FdetConfig(max_blocks=10)).detect(injection.graph)
        detected = set(result.detected_users().tolist())
        truth = set(injection.fraud_user_labels.tolist())
        recall = len(detected & truth) / len(truth)
        precision = len(detected & truth) / max(len(detected), 1)
        assert recall >= 0.85
        assert precision >= 0.7

    @pytest.mark.parametrize("engine", PeelEngine.ALL)
    def test_first_block_is_the_whole_graph_peel(self, planted_graph, engine):
        """Block 1 is the best prefix of one peel over the whole graph."""
        graph, _ = planted_graph
        metric = LogWeightedDensity()
        peel = greedy_peel(graph, metric.edge_weights(graph), engine=PeelEngine.REFERENCE)
        first = Fdet(FdetConfig(max_blocks=3, engine=engine)).detect(graph).all_blocks[0]
        assert np.array_equal(first.user_labels, np.sort(graph.user_labels[peel.user_mask]))
        assert np.array_equal(
            first.merchant_labels, np.sort(graph.merchant_labels[peel.merchant_mask])
        )
        assert first.density == peel.density  # bitwise, no tolerance
        assert first.n_edges == peel.edge_indices(graph).size

    def test_block_labels_sorted(self, planted_graph):
        graph, _ = planted_graph
        result = Fdet(FdetConfig(max_blocks=4)).detect(graph)
        for block in result.all_blocks:
            assert np.all(np.diff(block.user_labels) > 0)
            assert np.all(np.diff(block.merchant_labels) > 0)


class TestWeightPolicies:
    def test_policies_agree_on_first_block(self, planted_graph):
        graph, _ = planted_graph
        refresh = Fdet(FdetConfig(max_blocks=1, weight_policy=WeightPolicy.REFRESH)).detect(graph)
        frozen = Fdet(FdetConfig(max_blocks=1, weight_policy=WeightPolicy.FROZEN)).detect(graph)
        # first block sees identical degrees under both policies
        assert np.array_equal(
            refresh.all_blocks[0].user_labels, frozen.all_blocks[0].user_labels
        )

    def test_policies_may_differ_later(self, planted_graph):
        graph, _ = planted_graph
        refresh = Fdet(FdetConfig(max_blocks=6, weight_policy=WeightPolicy.REFRESH)).detect(graph)
        frozen = Fdet(FdetConfig(max_blocks=6, weight_policy=WeightPolicy.FROZEN)).detect(graph)
        # both must still produce valid results (no assertion of equality)
        assert len(refresh.all_blocks) >= 1
        assert len(frozen.all_blocks) >= 1
