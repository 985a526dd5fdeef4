"""Bitwise parity of the plan/store-file fan-out vs the eager pipeline.

The zero-copy refactor's contract: for every sampler and every executor
backend, ``EnsemFDet.fit`` driven by ``plan_many`` + worker-side
materialization produces **exactly** the subgraphs, per-sample detections
and vote table the historical eager ``sample_many`` pipeline produced —
same RNG consumption, deterministic materialization, byte-for-byte arrays.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ensemble import EnsemFDet, EnsemFDetConfig
from repro.ensemble.voting import VoteTable
from repro.errors import GraphError
from repro.faults.chaos import leaked_spills
from repro.fdet import Fdet, FdetConfig
from repro.graph import BipartiteGraph, GraphStore
from repro.parallel import ExecutorMode
from repro.sampling import (
    OneSideNodeSampler,
    RandomEdgeSampler,
    Side,
    StableEdgeSampler,
    TwoSideNodeSampler,
    materialize_plan,
    resolve_rng,
)

#: all five sampling variants the registry exposes (plus the reweighted RES)
SAMPLER_FACTORIES = {
    "res": lambda: RandomEdgeSampler(0.35),
    "res_reweight": lambda: RandomEdgeSampler(0.35, reweight=True),
    "ons_user": lambda: OneSideNodeSampler(0.4, Side.USER),
    "ons_merchant": lambda: OneSideNodeSampler(0.4, Side.MERCHANT),
    "tns": lambda: TwoSideNodeSampler(0.6),
    "ses": lambda: StableEdgeSampler(0.35, stripe=32),
}

BACKENDS = (ExecutorMode.SERIAL, ExecutorMode.PROCESS)


@pytest.fixture(scope="module")
def parent() -> BipartiteGraph:
    """A deterministic weighted graph with a dense corner (~2.5k edges)."""
    rng = np.random.default_rng(7)
    users = rng.integers(0, 300, size=2200)
    merchants = rng.integers(0, 80, size=2200)
    block = [(u, m) for u in range(280, 300) for m in range(70, 80)]
    edge_users = np.concatenate([users, np.array([u for u, _ in block])])
    edge_merchants = np.concatenate([merchants, np.array([m for _, m in block])])
    weights = rng.uniform(0.5, 2.0, size=edge_users.size)
    return BipartiteGraph(300, 80, edge_users, edge_merchants, edge_weights=weights)


def assert_graphs_bitwise_equal(a: BipartiteGraph, b: BipartiteGraph) -> None:
    assert (a.n_users, a.n_merchants) == (b.n_users, b.n_merchants)
    assert np.array_equal(a.edge_users, b.edge_users)
    assert np.array_equal(a.edge_merchants, b.edge_merchants)
    assert (a.edge_weights is None) == (b.edge_weights is None)
    if a.edge_weights is not None:
        # bitwise, not approximate: materialization must not re-derive weights
        assert np.array_equal(a.edge_weights, b.edge_weights)
    assert np.array_equal(a.user_labels, b.user_labels)
    assert np.array_equal(a.merchant_labels, b.merchant_labels)


def assert_results_bitwise_equal(plan_based, eager) -> None:
    """Two lists of :class:`FdetResult` agree block for block."""
    assert len(plan_based) == len(eager)
    for p, e in zip(plan_based, eager):
        assert p.k_hat == e.k_hat
        assert np.array_equal(p.densities, e.densities)
        assert np.array_equal(p.detected_users(), e.detected_users())
        assert np.array_equal(p.detected_merchants(), e.detected_merchants())


def results_of(detections) -> list:
    return [detection.result for detection in detections]


def eager_reference_fit(parent, config):
    """The historical pipeline: materialize everything, then detect."""
    rng = resolve_rng(config.seed)
    samples = config.sampler.sample_many(parent, config.n_samples, rng)
    fdet = Fdet(config.fdet)
    results = [fdet.detect(sample) for sample in samples]
    table = VoteTable.from_detections(
        [r.detected_users().tolist() for r in results],
        [r.detected_merchants().tolist() for r in results],
    )
    return table, results


class TestPlanMaterializeParity:
    """``materialize(plan(...))`` reproduces the eager sample bit for bit."""

    @pytest.mark.parametrize("name", sorted(SAMPLER_FACTORIES))
    def test_sample_stream_identical(self, parent, name):
        sampler = SAMPLER_FACTORIES[name]()
        eager = sampler.sample_many(parent, 6, rng=11)
        plans = sampler.plan_many(parent, 6, rng=11)
        assert len(plans) == 6
        for subgraph, plan in zip(eager, plans):
            assert_graphs_bitwise_equal(subgraph, materialize_plan(parent, plan))

    @pytest.mark.parametrize("name", sorted(SAMPLER_FACTORIES))
    def test_single_sample_identical(self, parent, name):
        sampler = SAMPLER_FACTORIES[name]()
        eager = sampler.sample(parent, rng=5)
        again = materialize_plan(parent, sampler.plan(parent, rng=5))
        assert_graphs_bitwise_equal(eager, again)

    @pytest.mark.parametrize("name", sorted(SAMPLER_FACTORIES))
    def test_plans_are_compact(self, parent, name):
        """A plan ships far fewer bytes than the subgraph it describes."""
        sampler = SAMPLER_FACTORIES[name]()
        plan = sampler.plan(parent, rng=3)
        subgraph = materialize_plan(parent, plan)
        subgraph_bytes = GraphStore.from_graph(subgraph).nbytes
        if subgraph_bytes:
            assert plan.nbytes < subgraph_bytes

    def test_plan_materializes_against_spilled_view(self, parent):
        """Materializing against a read-only mapped spill is still bitwise."""
        sampler = RandomEdgeSampler(0.35)
        plans = sampler.plan_many(parent, 3, rng=2)
        eager = sampler.sample_many(parent, 3, rng=2)
        with GraphStore.from_graph(parent).export_shared() as spill:
            view = GraphStore.open(spill.layout.path).to_graph()
            assert not view.edge_users.flags.writeable
            for subgraph, plan in zip(eager, plans):
                assert_graphs_bitwise_equal(subgraph, materialize_plan(view, plan))
        assert leaked_spills() == []


class TestFitParity:
    """The plan-based fit equals the eager reference on every backend."""

    @pytest.mark.parametrize("name", sorted(SAMPLER_FACTORIES))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fit_matches_eager_reference(self, parent, name, backend):
        config = EnsemFDetConfig(
            sampler=SAMPLER_FACTORIES[name](),
            n_samples=6,
            fdet=FdetConfig(max_blocks=4),
            executor=backend,
            n_workers=2,
            seed=13,
        )
        reference_table, reference_results = eager_reference_fit(parent, config)
        result = EnsemFDet(config).fit(parent)
        assert result.vote_table.user_votes == reference_table.user_votes
        assert result.vote_table.merchant_votes == reference_table.merchant_votes
        assert_results_bitwise_equal(results_of(result.sample_detections), reference_results)
        assert leaked_spills() == []

    @pytest.mark.parametrize("name", sorted(SAMPLER_FACTORIES))
    def test_file_backed_parent_matches_eager_reference(self, parent, name, tmp_path):
        """Workers that map the parent's own store file materialize every
        sampler's plans bit for bit, and nothing is spilled."""
        config = EnsemFDetConfig(
            sampler=SAMPLER_FACTORIES[name](),
            n_samples=6,
            fdet=FdetConfig(max_blocks=4),
            executor=ExecutorMode.PROCESS,
            n_workers=2,
            seed=13,
        )
        reference_table, reference_results = eager_reference_fit(parent, config)
        path = tmp_path / "parent.store"
        GraphStore.from_graph(parent).save(path)
        result = EnsemFDet(config).fit(GraphStore.open(path))
        assert result.retry_log[0]["transport"] == "file"
        assert result.vote_table.user_votes == reference_table.user_votes
        assert result.vote_table.merchant_votes == reference_table.merchant_votes
        assert_results_bitwise_equal(results_of(result.sample_detections), reference_results)
        assert leaked_spills() == []

    def test_track_appearances_parity_across_backends(self, parent):
        tables = []
        for backend in BACKENDS:
            config = EnsemFDetConfig(
                sampler=RandomEdgeSampler(0.35),
                n_samples=5,
                fdet=FdetConfig(max_blocks=4),
                executor=backend,
                n_workers=2,
                seed=21,
                track_appearances=True,
            )
            tables.append(EnsemFDet(config).fit(parent).vote_table)
        for table in tables[1:]:
            assert table.user_votes == tables[0].user_votes
            assert table.user_appearances == tables[0].user_appearances
            assert table.merchant_appearances == tables[0].merchant_appearances


class TestTrustedViews:
    """FDET accepts read-only store-backed graphs without re-validation."""

    def test_detect_on_spilled_view_matches_original(self, parent):
        with GraphStore.from_graph(parent).export_shared() as spill:
            view = GraphStore.open(spill.layout.path).to_graph()
            direct = Fdet(FdetConfig(max_blocks=4)).detect(parent)
            via_view = Fdet(FdetConfig(max_blocks=4)).detect(view)
            assert np.array_equal(direct.densities, via_view.densities)
            assert np.array_equal(direct.detected_users(), via_view.detected_users())

    def test_spill_gone_after_dispose(self, parent):
        spill = GraphStore.from_graph(parent).export_shared()
        path = spill.layout.path
        spill.dispose()
        spill.dispose()  # idempotent
        with pytest.raises(GraphError, match="does not exist"):
            GraphStore.open(path)
