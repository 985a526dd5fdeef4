"""Unit tests for the three sampling methods."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphValidationError, SamplingError
from repro.graph import BipartiteGraph, assert_subgraph_of
from repro.sampling import (
    OneSideNodeSampler,
    RandomEdgeSampler,
    SamplePlan,
    Side,
    StableEdgeSampler,
    TwoSideNodeSampler,
    materialize_plan,
    recommend_side,
    resolve_rng,
)
from repro.sampling.base import plan_edge_ids


class TestRatioValidation:
    @pytest.mark.parametrize("ratio", [0.0, -0.1, 1.5])
    def test_bad_ratio_rejected(self, ratio):
        with pytest.raises(SamplingError):
            RandomEdgeSampler(ratio)

    def test_ratio_one_allowed(self):
        RandomEdgeSampler(1.0)

    def test_bad_side_rejected(self):
        with pytest.raises(SamplingError):
            OneSideNodeSampler(0.5, side="bogus")

    def test_sample_many_needs_positive_count(self, tiny_graph):
        with pytest.raises(SamplingError):
            RandomEdgeSampler(0.5).sample_many(tiny_graph, 0)

    def test_plan_many_needs_positive_count(self, tiny_graph):
        with pytest.raises(SamplingError):
            RandomEdgeSampler(0.5).plan_many(tiny_graph, 0)


class TestResolveRng:
    def test_accepts_int_none_and_generator(self):
        generator = np.random.default_rng(1)
        assert resolve_rng(generator) is generator
        assert isinstance(resolve_rng(5), np.random.Generator)
        assert isinstance(resolve_rng(None), np.random.Generator)

    @pytest.mark.parametrize("seed", [True, False, np.True_])
    def test_bool_seed_rejected(self, seed):
        # bool is an int subclass: resolve_rng(True) used to silently mean
        # seed 1, hiding a misplaced flag argument
        with pytest.raises(SamplingError, match="bool"):
            resolve_rng(seed)

    def test_bool_seed_rejected_through_sampler(self, tiny_graph):
        with pytest.raises(SamplingError, match="bool"):
            RandomEdgeSampler(0.5).sample(tiny_graph, rng=True)


class TestSamplePlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(SamplingError, match="kind"):
            SamplePlan(kind="bogus")

    def test_nbytes_counts_payload_arrays(self):
        plan = SamplePlan(kind="edges", edge_indices=np.arange(10, dtype=np.int64))
        assert plan.nbytes == 80


class TestRandomEdgeSampler:
    def test_edge_count_matches_ratio(self, clique_graph, rng):
        sub = RandomEdgeSampler(0.5).sample(clique_graph, rng)
        assert sub.n_edges == 10  # ceil(0.5 * 20)

    def test_is_subgraph(self, clique_graph, rng):
        sub = RandomEdgeSampler(0.3).sample(clique_graph, rng)
        assert_subgraph_of(sub, clique_graph)

    def test_no_isolated_nodes(self, planted_graph, rng):
        graph, _ = planted_graph
        sub = RandomEdgeSampler(0.2).sample(graph, rng)
        assert np.all(sub.user_degrees() > 0)
        assert np.all(sub.merchant_degrees() > 0)

    def test_ratio_one_keeps_all_edges(self, tiny_graph, rng):
        sub = RandomEdgeSampler(1.0).sample(tiny_graph, rng)
        assert sub.n_edges == tiny_graph.n_edges

    def test_empty_graph(self, rng):
        sub = RandomEdgeSampler(0.5).sample(BipartiteGraph.empty(3, 3), rng)
        assert sub.is_empty

    def test_reweight_scales_by_inverse_ratio(self, clique_graph, rng):
        sub = RandomEdgeSampler(0.5, reweight=True).sample(clique_graph, rng)
        assert np.allclose(sub.edge_weights, 2.0)

    def test_seeded_reproducibility(self, clique_graph):
        a = RandomEdgeSampler(0.4).sample(clique_graph, 7)
        b = RandomEdgeSampler(0.4).sample(clique_graph, 7)
        assert a == b

    def test_sample_many_count_and_independence(self, clique_graph):
        samples = RandomEdgeSampler(0.4).sample_many(clique_graph, 5, rng=3)
        assert len(samples) == 5
        # overwhelmingly unlikely that all five draws coincide
        assert any(samples[0] != s for s in samples[1:])


class TestOneSideNodeSampler:
    def test_user_side_limits_users(self, clique_graph, rng):
        sub = OneSideNodeSampler(0.4, Side.USER).sample(clique_graph, rng)
        assert sub.n_users == 2  # ceil(0.4 * 5)
        assert sub.n_merchants == 4  # all merchants touched

    def test_merchant_side_limits_merchants(self, clique_graph, rng):
        sub = OneSideNodeSampler(0.5, Side.MERCHANT).sample(clique_graph, rng)
        assert sub.n_merchants == 2
        assert sub.n_users == 5

    def test_keeps_all_edges_of_sampled_users(self, tiny_graph):
        sampler = OneSideNodeSampler(0.25, Side.USER)  # exactly one user
        for seed in range(8):
            sub = sampler.sample(tiny_graph, seed)
            label = int(sub.user_labels[0])
            expected = int((tiny_graph.edge_users == label).sum())
            assert sub.n_edges == expected

    def test_is_subgraph(self, planted_graph, rng):
        graph, _ = planted_graph
        sub = OneSideNodeSampler(0.3, Side.MERCHANT).sample(graph, rng)
        assert_subgraph_of(sub, graph)

    def test_isolated_picks_are_dropped(self, rng):
        # merchant 1 has no edges: picked, but not part of the member
        graph = BipartiteGraph.from_edges([(0, 0)], n_users=1, n_merchants=2)
        sub = OneSideNodeSampler(1.0, Side.MERCHANT).sample(graph, rng)
        assert sub.n_merchants == 1
        assert sub.merchant_labels.tolist() == [0]

    def test_name_reflects_side(self):
        assert OneSideNodeSampler(0.5, Side.USER).name == "ons_user"
        assert OneSideNodeSampler(0.5, Side.MERCHANT).name == "ons_merchant"


class TestTwoSideNodeSampler:
    def test_both_sides_limited(self, clique_graph, rng):
        sub = TwoSideNodeSampler(0.5).sample(clique_graph, rng)
        assert sub.n_users <= 3
        assert sub.n_merchants <= 2

    def test_expected_edge_fraction(self):
        assert TwoSideNodeSampler(0.1).expected_edge_fraction() == pytest.approx(0.01)
        assert TwoSideNodeSampler(0.1, merchant_ratio=0.5).expected_edge_fraction() == pytest.approx(0.05)

    def test_smaller_than_res_at_same_ratio(self, planted_graph):
        graph, _ = planted_graph
        ratio = 0.3
        res_edges = np.mean(
            [RandomEdgeSampler(ratio).sample(graph, s).n_edges for s in range(10)]
        )
        tns_edges = np.mean(
            [TwoSideNodeSampler(ratio).sample(graph, s).n_edges for s in range(10)]
        )
        assert tns_edges < res_edges

    def test_is_subgraph(self, planted_graph, rng):
        graph, _ = planted_graph
        sub = TwoSideNodeSampler(0.4).sample(graph, rng)
        assert_subgraph_of(sub, graph)

    def test_distinct_merchant_ratio(self, clique_graph, rng):
        sub = TwoSideNodeSampler(1.0, merchant_ratio=0.25).sample(clique_graph, rng)
        assert sub.n_merchants == 1
        assert sub.n_users == 5  # every user buys at the surviving merchant


def node_plan(users=None, merchants=None):
    """A node plan picking ``users`` / ``merchants`` (``None`` picks the whole side)."""

    def ids(values):
        return None if values is None else np.array(values, dtype=np.int64)

    return SamplePlan(kind="nodes", users=ids(users), merchants=ids(merchants))


class TestNodePlans:
    """A node plan's member: the edges whose two ends were picked, ascending."""

    def test_both_sides(self, tiny_graph):
        plan = node_plan(users=[1, 0], merchants=[0])
        assert plan_edge_ids(plan, tiny_graph).tolist() == [0, 2]  # (0,0) and (1,0)
        sub = materialize_plan(tiny_graph, plan)
        assert sub.n_edges == 2
        assert sub.user_labels.tolist() == [0, 1]
        assert sub.merchant_labels.tolist() == [0]

    def test_none_keeps_the_side(self, tiny_graph):
        plan = node_plan(users=[0])
        assert plan_edge_ids(plan, tiny_graph).tolist() == [0, 1]  # both of user 0's edges
        assert materialize_plan(tiny_graph, plan).merchant_labels.tolist() == [0, 1]
        every = plan_edge_ids(node_plan(), tiny_graph)
        assert every.tolist() == list(range(tiny_graph.n_edges))

    def test_drops_isolated_picks(self, tiny_graph):
        # user 2 only buys at merchant 2, so it has no edge here
        sub = materialize_plan(tiny_graph, node_plan(users=[0, 2], merchants=[0, 1]))
        assert sub.user_labels.tolist() == [0]
        assert sub.n_edges == 2

    def test_member_is_the_edge_subgraph_of_its_ids(self, planted_graph, rng):
        graph, _ = planted_graph
        for sampler in (OneSideNodeSampler(0.3, Side.USER), TwoSideNodeSampler(0.5)):
            plan = sampler.plan(graph, rng)
            ids = plan_edge_ids(plan, graph)
            assert ids.dtype == np.int64 and np.all(np.diff(ids) > 0)
            picked = np.ones(graph.n_edges, dtype=bool)
            if plan.users is not None:
                picked &= np.isin(graph.edge_users, plan.users)
            if plan.merchants is not None:
                picked &= np.isin(graph.edge_merchants, plan.merchants)
            assert np.array_equal(ids, np.flatnonzero(picked))
            member = materialize_plan(graph, plan)
            assert member == graph.edge_subgraph(ids)
            assert_subgraph_of(member, graph)


class TestPlanIdsOutsideTheGraph:
    """Edge and node ids are range-checked before anything reads them."""

    @pytest.mark.parametrize("ids", [[0, 6], [-1, 2], [5_000_000]], ids=["end", "negative", "far"])
    def test_edge_ids(self, tiny_graph, ids):
        plan = SamplePlan(kind="edges", edge_indices=np.array(ids, dtype=np.int64))
        with pytest.raises(GraphValidationError, match="edge index outside the graph"):
            plan_edge_ids(plan, tiny_graph)
        with pytest.raises(GraphValidationError):
            materialize_plan(tiny_graph, plan)

    @pytest.mark.parametrize(
        "plan,side",
        [
            (node_plan(users=[-1]), "user"),
            (node_plan(users=[0, 4]), "user"),
            (node_plan(users=[0], merchants=[-1]), "merchant"),
            (node_plan(merchants=[3]), "merchant"),
        ],
        ids=["user-negative", "user-too-large", "merchant-negative", "merchant-too-large"],
    )
    def test_node_ids(self, tiny_graph, plan, side):
        # a negative id must not wrap round to the last node
        with pytest.raises(GraphValidationError, match=f"{side} index outside the graph"):
            plan_edge_ids(plan, tiny_graph)

    def test_stripe_and_empty_plans_need_no_check(self, tiny_graph):
        plan = StableEdgeSampler(1.0, stripe=4).plan(tiny_graph, 0)
        assert plan_edge_ids(plan, tiny_graph).tolist() == list(range(tiny_graph.n_edges))
        empty = SamplePlan(kind="edges", edge_indices=np.empty(0, dtype=np.int64))
        assert plan_edge_ids(empty, tiny_graph).size == 0


class TestRecommendSide:
    def test_denser_merchant_side_recommended(self):
        # 6 users, 2 merchants: merchants are denser
        graph = BipartiteGraph.from_edges(
            [(u, u % 2) for u in range(6)], n_users=6, n_merchants=2
        )
        assert recommend_side(graph) == Side.MERCHANT

    def test_denser_user_side_recommended(self):
        graph = BipartiteGraph.from_edges(
            [(u % 2, v) for u in range(6) for v in range(3)], n_users=2, n_merchants=3
        )
        assert recommend_side(graph) == Side.USER
