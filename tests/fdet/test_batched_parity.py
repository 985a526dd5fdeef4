"""Batched native FDET: bitwise parity with the reference engine.

The batched backend (``repro.fdet.batched`` + ``repro_fdet_batch`` in the C
kernel) replaces per-member ``materialize_plan`` + ``Fdet.detect`` with one
multi-member kernel call, runs ``Fdet.detect`` itself on a whole graph, and
the native vote merge replaces the Python label tally. Everything it
produces must be **bitwise identical** to the ``reference`` engine — this
suite pins that down across sampler families, window modes (append-only
and rolling), batch sizes (1 / 4 / N, including degenerate empty members),
unusual weights, nodes with no edge, execution backends (serial / thread /
process × shared-memory on / off) and both weight policies.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.datasets import chung_lu_bipartite, uniform_bipartite
from repro.ensemble import EnsemFDet, EnsemFDetConfig, IncrementalEnsemFDet, detect_on_plans
from repro.fdet import (
    AverageDegreeDensity,
    Fdet,
    FdetConfig,
    LogWeightedDensity,
    PeelEngine,
    PriorWeightedDensity,
    WeightPolicy,
)
from repro.fdet import batched, peeling
from repro.fdet._native import native_available
from repro.graph import BipartiteGraph, WindowConfig
from repro.sampling import (
    OneSideNodeSampler,
    RandomEdgeSampler,
    Side,
    StableEdgeSampler,
    TwoSideNodeSampler,
    materialize_plan,
    resolve_rng,
)
from repro.sampling.base import SamplePlan

pytestmark = pytest.mark.skipif(
    not native_available(), reason="native kernel unavailable (no C compiler)"
)

SAMPLERS = {
    "random-edge": lambda: RandomEdgeSampler(0.3),
    "stable-edge": lambda: StableEdgeSampler(0.3, stripe=16),
    "one-side-user": lambda: OneSideNodeSampler(0.3, Side.USER),
    "one-side-merchant": lambda: OneSideNodeSampler(0.3, Side.MERCHANT),
    "two-side": lambda: TwoSideNodeSampler(0.3),
}


@pytest.fixture(scope="module")
def weighted_graph():
    base = chung_lu_bipartite(120, 50, 900, rng=2)
    return base.with_weights(np.random.default_rng(7).uniform(0.1, 3.0, base.n_edges))


@pytest.fixture(scope="module")
def sparse_graph():
    """Sparse enough that the vote-merge tests find unvoted nodes on each side."""
    base = chung_lu_bipartite(200, 120, 900, rng=2)
    return base.with_weights(np.random.default_rng(7).uniform(0.1, 3.0, base.n_edges))


@pytest.fixture(scope="module")
def plain_graph():
    return uniform_bipartite(100, 45, 800, rng=5)


def assert_same_detection(left, right):
    """Bitwise equality of two per-member FDET outputs."""
    lres, rres = left.result, right.result
    assert lres.k_hat == rres.k_hat
    assert len(lres.all_blocks) == len(rres.all_blocks)
    for lb, rb in zip(lres.all_blocks, rres.all_blocks):
        assert np.array_equal(lb.user_labels, rb.user_labels)
        assert np.array_equal(lb.merchant_labels, rb.merchant_labels)
        assert lb.density == rb.density  # bitwise, no tolerance
        assert lb.n_edges == rb.n_edges
    assert np.array_equal(lres.detected_users(), rres.detected_users())
    assert np.array_equal(lres.detected_merchants(), rres.detected_merchants())
    if left.sample_users is not None or right.sample_users is not None:
        assert left.sample_users == right.sample_users
        assert left.sample_merchants == right.sample_merchants


def assert_tables_equal(a, b):
    assert a.n_samples == b.n_samples
    assert dict(a.user_votes) == dict(b.user_votes)
    assert dict(a.merchant_votes) == dict(b.merchant_votes)


def fit_pair(graph, fdet=None, **overrides):
    """(fast, reference-engine) fits of the same configuration."""
    results = []
    for engine in (PeelEngine.FAST, PeelEngine.REFERENCE):
        config = replace(fdet or FdetConfig(), engine=engine)
        results.append(EnsemFDet(EnsemFDetConfig(seed=11, fdet=config, **overrides)).fit(graph))
    return results


class TestDetectManyDirect:
    """detect_many against materialize_plan + Fdet.detect, member by member."""

    @pytest.mark.parametrize("graph_name", ["weighted", "plain"])
    @pytest.mark.parametrize("policy", WeightPolicy.ALL)
    @pytest.mark.parametrize("metric", [LogWeightedDensity(), AverageDegreeDensity()])
    def test_bitwise_blocks(self, request, graph_name, policy, metric):
        graph = request.getfixturevalue(f"{graph_name}_graph")
        config = FdetConfig(max_blocks=8, weight_policy=policy, metric=metric)
        plans = RandomEdgeSampler(0.4).plan_many(graph, 6, resolve_rng(13))
        native = batched.detect_many(graph, plans, config)
        assert native is not None
        fdet = Fdet(config)
        for plan, nd in zip(plans, native):
            assert nd is not None
            expected = fdet.detect(materialize_plan(graph, plan))
            assert expected.k_hat == nd.result.k_hat
            assert len(expected.all_blocks) == len(nd.result.all_blocks)
            for eb, nb in zip(expected.all_blocks, nd.result.all_blocks):
                assert np.array_equal(eb.user_labels, nb.user_labels)
                assert np.array_equal(eb.merchant_labels, nb.merchant_labels)
                assert eb.density == nb.density
                assert eb.n_edges == nb.n_edges
            # detected indices gather to exactly the detected labels
            assert np.array_equal(
                np.sort(graph.user_labels[nd.detected_user_indices]),
                expected.detected_users(),
            )
            assert np.array_equal(
                np.sort(graph.merchant_labels[nd.detected_merchant_indices]),
                expected.detected_merchants(),
            )

    @pytest.mark.parametrize("n_members", [1, 4, 9])
    def test_batch_sizes_with_empty_members(self, weighted_graph, n_members):
        """Degenerate members (zero edges) ride along in any batch size."""
        config = FdetConfig(max_blocks=6)
        plans = list(
            RandomEdgeSampler(0.35).plan_many(weighted_graph, n_members, resolve_rng(3))
        )
        empty = SamplePlan(kind="edges", edge_indices=np.empty(0, dtype=np.int64))
        plans[0] = empty
        if n_members >= 4:
            plans[2] = empty
        native = batched.detect_many(weighted_graph, plans, config)
        assert native is not None
        fdet = Fdet(config)
        for plan, nd in zip(plans, native):
            expected = fdet.detect(materialize_plan(weighted_graph, plan))
            assert nd.result.k_hat == expected.k_hat
            assert [b.density for b in nd.result.all_blocks] == [
                b.density for b in expected.all_blocks
            ]

    def test_weight_scale_applied(self, plain_graph):
        """Horvitz–Thompson rescaled plans peel identically to materialized."""
        config = FdetConfig(max_blocks=6)
        rng = resolve_rng(9)
        indices = rng.choice(plain_graph.n_edges, size=300, replace=False)
        plan = SamplePlan(
            kind="edges",
            edge_indices=np.sort(indices).astype(np.int64),
            weight_scale=1.0 / 0.3,
        )
        native = batched.detect_many(plain_graph, [plan], config)
        expected = Fdet(config).detect(materialize_plan(plain_graph, plan))
        assert native[0].result.k_hat == expected.k_hat
        assert [b.density for b in native[0].result.all_blocks] == [
            b.density for b in expected.all_blocks
        ]

    def test_no_kernel_runs_the_reference_engine(self, weighted_graph, monkeypatch):
        """A host without a kernel: no batch, and ``fast`` runs ``reference``."""
        fast, reference = fit_pair(weighted_graph, sampler=RandomEdgeSampler(0.3), n_samples=4)
        expected = Fdet(FdetConfig(engine=PeelEngine.REFERENCE)).detect(weighted_graph)
        monkeypatch.setattr(batched, "load_kernels", lambda: None)
        monkeypatch.setattr(peeling, "load_kernels", lambda: None)
        assert batched.batch_kernels() is None
        plans = RandomEdgeSampler(0.3).plan_many(weighted_graph, 2, resolve_rng(1))
        assert batched.detect_many(weighted_graph, plans, FdetConfig()) is None
        assert batched.detect_graph(weighted_graph, FdetConfig()) is None
        got = Fdet(FdetConfig()).detect(weighted_graph)
        TestUnusualWeights.assert_same_result(expected, got)
        config = EnsemFDetConfig(seed=11, sampler=RandomEdgeSampler(0.3), n_samples=4)
        fallback = EnsemFDet(config).fit(weighted_graph)
        assert_tables_equal(fallback.vote_table, fast.vote_table)
        assert_tables_equal(fallback.vote_table, reference.vote_table)


def unusual_weights(kind, n_edges):
    """Edge weights outside the positive normal range the peel usually sees.

    ``subnormal``, ``deep-subnormal`` and ``overflow`` replace every weight.
    ``deep-subnormal`` weights are two to five units in the last place, so
    each member's ``total / n`` is a handful of units too and successive
    peel densities can round to the same value; ``overflow`` totals round
    to +inf. The other kinds replace a tenth of otherwise ordinary weights.
    """
    rng = np.random.default_rng(19)
    weights = rng.uniform(0.1, 3.0, n_edges)
    some = rng.random(n_edges) < 0.1
    if kind == "subnormal":
        return rng.uniform(1e-310, 9e-310, n_edges)
    if kind == "deep-subnormal":
        return rng.integers(2, 6, n_edges) * 5e-324
    if kind == "overflow":
        return rng.uniform(1e306, 1e307, n_edges)
    weights[some] = {
        "zero": lambda k: np.zeros(k),
        "negative": lambda k: -rng.uniform(0.1, 3.0, k),
        "huge": lambda k: rng.uniform(1e306, 1e307, k),
        "inf": lambda k: np.full(k, np.inf),
        "nan": lambda k: np.full(k, np.nan),
    }[kind](int(some.sum()))
    return weights


class TestUnusualWeights:
    """Zero, negative, subnormal, overflowing, infinite and NaN edge weights.

    The kernel peels only the nodes that have an alive edge when every
    residual weight is positive and ``total / n`` is a positive normal
    double, and the full member node set otherwise. These graphs drive
    both branches; outputs must still match the reference engine bit for
    bit (densities compared so that NaN equals NaN).
    """

    KINDS = ("zero", "negative", "subnormal", "deep-subnormal", "overflow", "huge", "inf", "nan")

    @staticmethod
    def assert_same_result(expected, got):
        assert expected.k_hat == got.k_hat
        assert len(expected.all_blocks) == len(got.all_blocks)
        for eb, gb in zip(expected.all_blocks, got.all_blocks):
            assert np.array_equal(eb.user_labels, gb.user_labels)
            assert np.array_equal(eb.merchant_labels, gb.merchant_labels)
            assert np.array_equal([eb.density], [gb.density], equal_nan=True)
            assert eb.n_edges == gb.n_edges

    @pytest.mark.parametrize("metric", [LogWeightedDensity(), AverageDegreeDensity()])
    @pytest.mark.parametrize("policy", WeightPolicy.ALL)
    @pytest.mark.parametrize("kind", KINDS)
    def test_bitwise_with_per_member_path(self, kind, policy, metric):
        base = chung_lu_bipartite(120, 50, 900, rng=2)
        graph = base.with_weights(unusual_weights(kind, base.n_edges))
        config = FdetConfig(max_blocks=8, weight_policy=policy, metric=metric)
        plans = RandomEdgeSampler(0.4).plan_many(graph, 4, resolve_rng(13))
        native = batched.detect_many(graph, plans, config)
        assert native is not None and all(nd is not None for nd in native)
        # numpy warns about the overflow and inf - inf these weights cause
        with np.errstate(over="ignore", invalid="ignore"):
            for engine in PeelEngine.ALL:
                fdet = Fdet(replace(config, engine=engine))
                for plan, nd in zip(plans, native):
                    expected = fdet.detect(materialize_plan(graph, plan))
                    self.assert_same_result(expected, nd.result)
            batch, reference = fit_pair(
                graph, sampler=RandomEdgeSampler(0.4), n_samples=4, fdet=config
            )
        assert_tables_equal(batch.vote_table, reference.vote_table)
        for left, right in zip(batch.sample_detections, reference.sample_detections):
            self.assert_same_result(right.result, left.result)

    @pytest.mark.parametrize("metric", [LogWeightedDensity(), AverageDegreeDensity()])
    @pytest.mark.parametrize("policy", WeightPolicy.ALL)
    @pytest.mark.parametrize("kind", KINDS)
    def test_whole_graph_with_edgeless_nodes(self, kind, policy, metric):
        """``Fdet.detect`` peels every node of the graph, edgeless ones too."""
        base = chung_lu_bipartite(120, 50, 900, rng=2)
        # five users and five merchants with no edge, spread over the id range
        users = np.setdiff1d(np.arange(base.n_users + 5), [0, 30, 60, 90, 124])
        merchants = np.setdiff1d(np.arange(base.n_merchants + 5), [0, 12, 24, 36, 54])
        graph = BipartiteGraph(
            base.n_users + 5,
            base.n_merchants + 5,
            users[base.edge_users],
            merchants[base.edge_merchants],
            unusual_weights(kind, base.n_edges),
        )
        assert (graph.user_degrees() == 0).sum() >= 5
        assert (graph.merchant_degrees() == 0).sum() >= 5
        config = FdetConfig(max_blocks=8, weight_policy=policy, metric=metric)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = Fdet(replace(config, engine=PeelEngine.REFERENCE)).detect(graph)
            got = Fdet(config).detect(graph)
        assert got.all_blocks
        self.assert_same_result(expected, got)


class TestEligibilityGating:
    def test_config_gating(self):
        assert batched.config_eligible(FdetConfig())
        assert batched.config_eligible(FdetConfig(metric=AverageDegreeDensity()))
        # prior-carrying metric overrides the node-weight hooks
        assert not batched.config_eligible(
            FdetConfig(metric=PriorWeightedDensity(np.zeros(1), np.zeros(1)))
        )
        assert not batched.config_eligible(FdetConfig(engine=PeelEngine.REFERENCE))

    def test_plan_gating(self, weighted_graph):
        edge_plan = RandomEdgeSampler(0.3).plan_many(weighted_graph, 1, resolve_rng(0))[0]
        node_plan = TwoSideNodeSampler(0.3).plan_many(weighted_graph, 1, resolve_rng(0))[0]
        assert batched.plan_eligible(edge_plan)
        if node_plan.kind == "nodes":
            assert not batched.plan_eligible(node_plan)


class TestSamplerFamilyParity:
    """fit() with the fast engine vs the reference engine, per family."""

    @pytest.mark.parametrize("family", sorted(SAMPLERS))
    def test_fit_parity(self, weighted_graph, family):
        batch, reference = fit_pair(
            weighted_graph,
            sampler=SAMPLERS[family](),
            n_samples=8,
            fdet=FdetConfig(max_blocks=8),
        )
        assert_tables_equal(batch.vote_table, reference.vote_table)
        for left, right in zip(batch.sample_detections, reference.sample_detections):
            assert_same_detection(left, right)

    @pytest.mark.parametrize("policy", WeightPolicy.ALL)
    def test_weight_policy_parity(self, plain_graph, policy):
        batch, reference = fit_pair(
            plain_graph,
            sampler=RandomEdgeSampler(0.3),
            n_samples=6,
            fdet=FdetConfig(max_blocks=8, weight_policy=policy),
        )
        assert_tables_equal(batch.vote_table, reference.vote_table)

    def test_track_appearances_parity(self, weighted_graph):
        batch, reference = fit_pair(
            weighted_graph,
            sampler=RandomEdgeSampler(0.3),
            n_samples=6,
            track_appearances=True,
        )
        assert_tables_equal(batch.vote_table, reference.vote_table)
        assert dict(batch.vote_table.user_appearances) == dict(
            reference.vote_table.user_appearances
        )
        assert dict(batch.vote_table.merchant_appearances) == dict(
            reference.vote_table.merchant_appearances
        )


class TestWindowedParity:
    """Rolling-window fits: liveness masks AND-ed into member edge sets."""

    def _stream(self, detector, graph):
        rng = np.random.default_rng(41)
        for step in range(4):
            users = rng.integers(0, 150, 25)
            merchants = rng.integers(0, 70, 25)
            if step == 2:
                detector.update(
                    users,
                    merchants,
                    remove_users=graph.edge_users[:2],
                    remove_merchants=graph.edge_merchants[:2],
                    timestamp=float(step + 1),
                )
            else:
                detector.update(users, merchants, timestamp=float(step + 1))

    def _config(self, engine):
        return EnsemFDetConfig(
            sampler=StableEdgeSampler(0.3, stripe=64),
            n_samples=8,
            fdet=FdetConfig(max_blocks=8, engine=engine),
            seed=23,
        )

    def test_incremental_and_cold_window_parity(self):
        graph = uniform_bipartite(150, 70, 1400, rng=3)
        detectors = {}
        for engine in PeelEngine.ALL:
            detector = IncrementalEnsemFDet(
                self._config(engine), window=WindowConfig(max_batches=3)
            )
            detector.fit(graph, timestamp=0.0)
            self._stream(detector, graph)
            detectors[engine] = detector
        warm_batch = detectors[PeelEngine.FAST]
        warm_reference = detectors[PeelEngine.REFERENCE]
        # the 3-batch window really expired edges — the liveness overlay is live
        assert warm_batch.window().watermark > warm_batch.window().n_live
        assert_tables_equal(warm_batch.vote_table, warm_reference.vote_table)
        # cold window fits, both engines, against the warm reference
        for engine in PeelEngine.ALL:
            cold = EnsemFDet(self._config(engine)).fit_window(
                warm_batch.window(), track_members=True
            )
            assert_tables_equal(cold.vote_table, warm_reference.vote_table)

    def test_append_only_window_parity(self):
        graph = uniform_bipartite(120, 60, 1000, rng=8)
        detectors = {}
        for engine in PeelEngine.ALL:
            detector = IncrementalEnsemFDet(self._config(engine))
            detector.fit(graph, timestamp=0.0)
            rng = np.random.default_rng(17)
            detector.update(rng.integers(0, 120, 30), rng.integers(0, 60, 30))
            detectors[engine] = detector
        assert_tables_equal(
            detectors[PeelEngine.FAST].vote_table, detectors[PeelEngine.REFERENCE].vote_table
        )


class TestBackendMatrix:
    """The batched backend composes with every executor and transport."""

    @pytest.mark.parametrize(
        "executor,shared_memory",
        [
            ("serial", False),
            ("thread", False),
            ("process", True),
            ("process", False),
        ],
    )
    def test_backend_parity(self, weighted_graph, executor, shared_memory):
        reference = EnsemFDet(
            EnsemFDetConfig(
                sampler=RandomEdgeSampler(0.3),
                n_samples=6,
                seed=11,
                fdet=FdetConfig(engine=PeelEngine.REFERENCE),
            )
        ).fit(weighted_graph)
        config = EnsemFDetConfig(
            sampler=RandomEdgeSampler(0.3),
            n_samples=6,
            seed=11,
            executor=executor,
            n_workers=2,
            shared_memory=shared_memory,
        )
        result = EnsemFDet(config).fit(weighted_graph)
        assert_tables_equal(result.vote_table, reference.vote_table)
        for left, right in zip(result.sample_detections, reference.sample_detections):
            assert_same_detection(left, right)

    def test_detect_on_plans_parity(self, plain_graph):
        config = FdetConfig(max_blocks=6)
        plans = RandomEdgeSampler(0.4).plan_many(plain_graph, 5, resolve_rng(2))
        batch = detect_on_plans(plain_graph, plans, config)
        reference = detect_on_plans(plain_graph, plans, config, engine=PeelEngine.REFERENCE)
        for left, right in zip(batch, reference):
            assert_same_detection(left, right)


class TestNativeVoteMerge:
    def test_counters_match_python_tally(self, weighted_graph):
        config = EnsemFDetConfig(sampler=RandomEdgeSampler(0.35), n_samples=7, seed=5)
        result = EnsemFDet(config).fit(weighted_graph)
        counters = batched.vote_counters(result.sample_detections, weighted_graph)
        assert counters is not None
        from repro.ensemble.voting import VoteTable

        expected = VoteTable.from_detections(
            [d.result.detected_users().tolist() for d in result.sample_detections],
            [d.result.detected_merchants().tolist() for d in result.sample_detections],
        )
        assert dict(counters[0]) == dict(expected.user_votes)
        assert dict(counters[1]) == dict(expected.merchant_votes)

    @staticmethod
    def _label_tally(detections):
        from repro.ensemble.voting import VoteTable

        return VoteTable.from_detections(
            [d.result.detected_users().tolist() for d in detections],
            [d.result.detected_merchants().tolist() for d in detections],
        )

    @staticmethod
    def _config(engine=PeelEngine.FAST):
        return EnsemFDetConfig(
            sampler=RandomEdgeSampler(0.35),
            n_samples=7,
            seed=5,
            fdet=FdetConfig(engine=engine),
        )

    def _fit_with_shared_label(self, graph, side, pick):
        """Fit ``graph`` with two ``side`` nodes, chosen by ``pick``, sharing a label.

        ``pick(voted, unvoted)`` gets the node indices of that side that the
        ensemble did / did not vote for; relabelling leaves every member's
        detection unchanged, since peeling never reads labels.
        """
        config = self._config()
        attr = f"detected_{side}_indices"
        first = EnsemFDet(config).fit(graph)
        n_nodes = graph.n_users if side == "user" else graph.n_merchants
        voted = np.unique(np.concatenate([getattr(d, attr) for d in first.sample_detections]))
        unvoted = np.setdiff1d(np.arange(n_nodes), voted)
        keep, dup = pick(voted, unvoted)
        labels = {
            "user_labels": np.arange(graph.n_users, dtype=np.int64) * 3 + 1,
            "merchant_labels": np.arange(graph.n_merchants, dtype=np.int64) * 3 + 2,
        }
        labels[f"{side}_labels"][dup] = labels[f"{side}_labels"][keep]
        relabelled = BipartiteGraph(
            graph.n_users,
            graph.n_merchants,
            graph.edge_users,
            graph.edge_merchants,
            graph.edge_weights,
            **labels,
        )
        return relabelled, EnsemFDet(config).fit(relabelled)

    @pytest.mark.parametrize("side", ["user", "merchant"])
    @pytest.mark.parametrize(
        "pick",
        [
            pytest.param(lambda voted, unvoted: (unvoted[0], unvoted[-1]), id="two-unvoted"),
            pytest.param(lambda voted, unvoted: (voted[0], unvoted[0]), id="unvoted-takes-voted"),
        ],
    )
    def test_duplicate_labels_among_unvoted_nodes_keep_native_path(
        self, sparse_graph, side, pick
    ):
        graph, result = self._fit_with_shared_label(sparse_graph, side, pick)
        counters = batched.vote_counters(result.sample_detections, graph)
        assert counters is not None
        expected = self._label_tally(result.sample_detections)
        assert dict(counters[0]) == dict(expected.user_votes)
        assert dict(counters[1]) == dict(expected.merchant_votes)
        assert_tables_equal(result.vote_table, expected)

    @pytest.mark.parametrize("side", ["user", "merchant"])
    def test_duplicate_labels_among_voted_nodes_fall_back(self, sparse_graph, side):
        graph, result = self._fit_with_shared_label(
            sparse_graph, side, lambda voted, unvoted: (voted[0], voted[-1])
        )
        assert batched.vote_counters(result.sample_detections, graph) is None
        expected = self._label_tally(result.sample_detections)
        assert_tables_equal(result.vote_table, expected)
        reference = EnsemFDet(self._config(PeelEngine.REFERENCE)).fit(graph)
        assert_tables_equal(reference.vote_table, expected)

    def test_refuses_detections_without_indices(self, weighted_graph):
        config = EnsemFDetConfig(
            sampler=RandomEdgeSampler(0.35),
            n_samples=4,
            seed=5,
            fdet=FdetConfig(engine=PeelEngine.REFERENCE),
        )
        result = EnsemFDet(config).fit(weighted_graph)
        assert batched.vote_counters(result.sample_detections, weighted_graph) is None
