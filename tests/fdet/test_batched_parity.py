"""Batched native FDET: bitwise parity with the reference engine.

The batched backend (``repro.fdet.batched`` + ``repro_fdet_batch`` in the C
kernel) replaces per-member ``materialize_plan`` + ``Fdet.detect`` with one
multi-member kernel call, runs ``Fdet.detect`` itself on a whole graph, and
the vote tally counts the detected node indices instead of labels. Everything it
produces must be **bitwise identical** to the ``reference`` engine — this
suite pins that down across sampler families, window modes (append-only
and rolling), batch sizes (1 / 4 / N, including degenerate empty members),
unusual weights, nodes with no edge, execution backends (serial / process
× the parent's own store file or a spilled store), both
weight policies, and ``Fdet.detect``'s per-block native peels when
batching is off or refuses the metric.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.datasets import chung_lu_bipartite, uniform_bipartite
from repro.ensemble import EnsemFDet, EnsemFDetConfig, IncrementalEnsemFDet, detect_on_plans
from repro.ensemble.results import VoteCounts
from repro.ensemble.voting import VoteTable, tally_votes
from repro.fdet import (
    AverageDegreeDensity,
    DensityMetric,
    Fdet,
    FdetConfig,
    LogWeightedDensity,
    PeelEngine,
    WeightPolicy,
    greedy_peel,
)
from repro.fdet import batched, peeling
from repro.fdet._native import native_available
from repro.graph import BipartiteGraph, GraphStore, WindowConfig
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
        assert np.array_equal(left.sample_users, right.sample_users)
        assert np.array_equal(left.sample_merchants, right.sample_merchants)


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


class InverseSqrtDensity(DensityMetric):
    """Edge weight ``1/sqrt(d + 1)``: a metric the batched kernel refuses.

    ``Fdet.detect`` runs it through the Python block loop, whose peels
    under ``fast`` still run in the kernel, one per block.
    """

    def merchant_degree_weights(self, degrees):
        return 1.0 / np.sqrt(degrees.astype(np.float64) + 1.0)


def spy_native_peel(monkeypatch):
    """Record, per ``peeling._native_peel`` call, whether the kernel ran it."""
    native_peel = peeling._native_peel
    ran = []

    def spy(graph, edge_weights):
        peeled = native_peel(graph, edge_weights)
        ran.append(peeled is not None)
        return peeled

    monkeypatch.setattr(peeling, "_native_peel", spy)
    return ran


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


def unusual_graph_with_edgeless_nodes(kind):
    """The unusual-weight graph plus five users and five merchants with no edge."""
    base = chung_lu_bipartite(120, 50, 900, rng=2)
    # the edgeless nodes are spread over the id range
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
    return graph


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

    @staticmethod
    def assert_same_peel(graph, weights):
        with np.errstate(over="ignore", invalid="ignore"):
            expected, got = (
                greedy_peel(graph, weights, engine=engine)
                for engine in (PeelEngine.REFERENCE, PeelEngine.FAST)
            )
        assert np.array_equal(expected.user_mask, got.user_mask)
        assert np.array_equal(expected.merchant_mask, got.merchant_mask)
        assert np.array_equal(expected.densities, got.densities, equal_nan=True)
        assert np.array_equal([expected.density], [got.density], equal_nan=True)
        assert expected.n_removed == got.n_removed

    @pytest.mark.parametrize("kind", KINDS)
    def test_single_peel(self, kind):
        """``greedy_peel``'s one peel."""
        graph = chung_lu_bipartite(120, 50, 900, rng=2)
        self.assert_same_peel(graph, unusual_weights(kind, graph.n_edges))

    @pytest.mark.parametrize("kind", KINDS)
    def test_single_peel_with_edgeless_nodes(self, kind):
        """``greedy_peel``'s one peel when some nodes have no edge."""
        graph = unusual_graph_with_edgeless_nodes(kind)
        self.assert_same_peel(graph, graph.edge_weights)

    @pytest.mark.parametrize("policy", WeightPolicy.ALL)
    @pytest.mark.parametrize("kind", KINDS)
    def test_blockwise_fast_engine(self, kind, policy, monkeypatch):
        """``Fdet.detect``'s Python block loop with one native peel per block."""
        base = chung_lu_bipartite(120, 50, 900, rng=2)
        graph = base.with_weights(unusual_weights(kind, base.n_edges))
        config = FdetConfig(max_blocks=8, weight_policy=policy)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = Fdet(replace(config, engine=PeelEngine.REFERENCE)).detect(graph)
            monkeypatch.setattr(batched, "_probe_verdict", False)
            ran = spy_native_peel(monkeypatch)
            got = Fdet(config).detect(graph)
        assert ran and all(ran)
        self.assert_same_result(expected, got)

    @pytest.mark.parametrize("metric", [LogWeightedDensity(), AverageDegreeDensity()])
    @pytest.mark.parametrize("policy", WeightPolicy.ALL)
    @pytest.mark.parametrize("kind", KINDS)
    def test_whole_graph_with_edgeless_nodes(self, kind, policy, metric):
        """``Fdet.detect`` peels every node of the graph, edgeless ones too."""
        graph = unusual_graph_with_edgeless_nodes(kind)
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

        class HalfWeight(DensityMetric):
            """Weights the kernel's stock degree tables do not hold."""

            def merchant_degree_weights(self, degrees):
                return np.full(degrees.shape[0], 0.5)

        assert not batched.config_eligible(FdetConfig(metric=HalfWeight()))
        assert not batched.config_eligible(FdetConfig(engine=PeelEngine.REFERENCE))

    def test_every_plan_kind_joins_the_batch(self, weighted_graph):
        """Edge, node and stripe plans are all parent edge-id lists the kernel peels."""
        config = FdetConfig(max_blocks=8)
        plans = [
            SAMPLERS[family]().plan_many(weighted_graph, 1, resolve_rng(0))[0]
            for family in sorted(SAMPLERS)
        ]
        assert {plan.kind for plan in plans} == set(SamplePlan.KINDS)
        native = batched.detect_many(weighted_graph, plans, config)
        reference = detect_on_plans(
            weighted_graph, plans, replace(config, engine=PeelEngine.REFERENCE)
        )
        for got, expected in zip(native, reference):
            assert np.array_equal(got.result.block_rows, expected.result.block_rows)
            assert np.array_equal(got.result.user_labels, expected.result.user_labels)
            assert got.result.densities.tobytes() == expected.result.densities.tobytes()
            assert np.array_equal(got.detected_user_indices, expected.detected_user_indices)
            assert np.array_equal(
                got.detected_merchant_indices, expected.detected_merchant_indices
            )


class TestBlockwiseFastEngine:
    """``Fdet.detect`` under ``fast`` in the Python block loop: one native peel per block.

    Production takes this loop when the summation probe fails on a host
    that still loads the kernel, when the kernel cannot allocate a
    whole-graph member, and for a metric the batch gate refuses.
    """

    @staticmethod
    def assert_bitwise(got, expected):
        assert got.k_hat == expected.k_hat
        assert np.array_equal(got.densities.view(np.int64), expected.densities.view(np.int64))
        assert np.array_equal(got.block_rows, expected.block_rows)
        assert np.array_equal(got.edge_counts, expected.edge_counts)

    @pytest.mark.parametrize(
        "metric",
        [LogWeightedDensity(), AverageDegreeDensity(), InverseSqrtDensity()],
        ids=["log-weighted", "average-degree", "inverse-sqrt"],
    )
    @pytest.mark.parametrize("policy", WeightPolicy.ALL)
    def test_bitwise_with_reference(self, weighted_graph, monkeypatch, policy, metric):
        config = FdetConfig(max_blocks=8, weight_policy=policy, metric=metric)
        expected = Fdet(replace(config, engine=PeelEngine.REFERENCE)).detect(weighted_graph)
        monkeypatch.setattr(batched, "_probe_verdict", False)
        ran = spy_native_peel(monkeypatch)
        assert batched.batch_kernels() is None
        got = Fdet(config).detect(weighted_graph)
        # every block's peel ran in the kernel, none fell back to the reference
        assert got.n_blocks > 1 and len(ran) >= got.n_blocks and all(ran)
        self.assert_bitwise(got, expected)

    @pytest.mark.parametrize("policy", WeightPolicy.ALL)
    def test_refused_metric_takes_the_block_loop(self, weighted_graph, monkeypatch, policy):
        """Batching on, but the gate refuses the metric: the per-block peels run."""
        config = FdetConfig(max_blocks=8, weight_policy=policy, metric=InverseSqrtDensity())
        assert batched.batch_kernels() is not None
        assert not batched.config_eligible(config)
        expected = Fdet(replace(config, engine=PeelEngine.REFERENCE)).detect(weighted_graph)
        ran = spy_native_peel(monkeypatch)
        got = Fdet(config).detect(weighted_graph)
        assert got.n_blocks > 1 and len(ran) >= got.n_blocks and all(ran)
        self.assert_bitwise(got, expected)


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
            cold = EnsemFDet(self._config(engine)).fit_window(warm_batch.window())
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
    """The batched backend composes with both executors and every transport."""

    @pytest.mark.parametrize(
        "executor,transport",
        [("serial", "local"), ("process", "file"), ("process", "mmap")],
    )
    def test_backend_parity(self, weighted_graph, executor, transport, tmp_path):
        parent = weighted_graph
        if transport == "file":
            GraphStore.from_graph(weighted_graph).save(tmp_path / "g.store")
            parent = GraphStore.open(tmp_path / "g.store")
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
        )
        result = EnsemFDet(config).fit(parent)
        assert result.retry_log[0]["transport"] == transport
        assert_tables_equal(result.vote_table, reference.vote_table)
        for left, right in zip(result.sample_detections, reference.sample_detections):
            assert_same_detection(left, right)

    def test_detect_on_plans_parity(self, plain_graph):
        config = FdetConfig(max_blocks=6)
        plans = RandomEdgeSampler(0.4).plan_many(plain_graph, 5, resolve_rng(2))
        batch = detect_on_plans(plain_graph, plans, config)
        reference = detect_on_plans(
            plain_graph, plans, replace(config, engine=PeelEngine.REFERENCE)
        )
        for left, right in zip(batch, reference):
            assert_same_detection(left, right)


class TestNativeVoteMerge:
    @staticmethod
    def _label_view(detections, graph):
        """``vote_counters``' count arrays as ``label -> votes`` dicts."""
        users, merchants = batched.vote_counters(
            [d.detected_user_indices for d in detections],
            [d.detected_merchant_indices for d in detections],
            graph,
        )
        return (
            dict(VoteCounts(graph.user_labels, users)),
            dict(VoteCounts(graph.merchant_labels, merchants)),
        )

    def test_counters_match_python_tally(self, weighted_graph):
        config = EnsemFDetConfig(sampler=RandomEdgeSampler(0.35), n_samples=7, seed=5)
        result = EnsemFDet(config).fit(weighted_graph)
        users, merchants = self._label_view(result.sample_detections, weighted_graph)
        expected = self._label_tally(result.sample_detections)
        assert users == dict(expected.user_votes)
        assert merchants == dict(expected.merchant_votes)

    @staticmethod
    def _label_tally(detections):
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
    def test_duplicate_labels_among_unvoted_nodes_count_per_node(
        self, sparse_graph, side, pick
    ):
        graph, result = self._fit_with_shared_label(sparse_graph, side, pick)
        users, merchants = self._label_view(result.sample_detections, graph)
        expected = self._label_tally(result.sample_detections)
        assert users == dict(expected.user_votes)
        assert merchants == dict(expected.merchant_votes)
        assert_tables_equal(result.vote_table, expected)

    @pytest.mark.parametrize("side", ["user", "merchant"])
    def test_duplicate_labels_among_voted_nodes_count_once_per_member(self, sparse_graph, side):
        graph, result = self._fit_with_shared_label(
            sparse_graph, side, lambda voted, unvoted: (voted[0], voted[-1])
        )
        users, merchants = self._label_view(result.sample_detections, graph)
        expected = self._label_tally(result.sample_detections)
        assert users == dict(expected.user_votes)
        assert merchants == dict(expected.merchant_votes)
        assert_tables_equal(result.vote_table, expected)
        reference = EnsemFDet(self._config(PeelEngine.REFERENCE)).fit(graph)
        assert_tables_equal(reference.vote_table, expected)

    @pytest.mark.parametrize("index", [-1, 10**6])
    def test_rejects_indices_outside_the_graph(self, weighted_graph, index):
        result = EnsemFDet(self._config()).fit(weighted_graph)
        stray = replace(result.sample_detections[0], detected_user_indices=np.array([index]))
        with pytest.raises(ValueError, match="outside the graph"):
            self._label_view([stray], weighted_graph)

    def test_reference_detections_carry_the_kernels_parent_node_ids(self, weighted_graph):
        kernel, reference = (
            EnsemFDet(self._config(engine)).fit(weighted_graph)
            for engine in (PeelEngine.FAST, PeelEngine.REFERENCE)
        )
        for got, expected in zip(reference.sample_detections, kernel.sample_detections):
            assert np.array_equal(got.detected_user_indices, expected.detected_user_indices)
            assert np.array_equal(
                got.detected_merchant_indices, expected.detected_merchant_indices
            )
        expected = self._label_tally(reference.sample_detections)
        assert_tables_equal(tally_votes(reference.sample_detections, weighted_graph), expected)
        assert_tables_equal(reference.vote_table, kernel.vote_table)
