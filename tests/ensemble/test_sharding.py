"""Stripe-sharded ensemble: bitwise parity with the unsharded fit and shard
failure degradation through the quorum path."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import chung_lu_bipartite
from repro.ensemble import EnsemFDet, EnsemFDetConfig, plan_shards
from repro.ensemble.sharding import _member_parent_ids
from repro.errors import DetectionError, QuorumError
from repro.faults import arm, disarm
from repro.fdet import FdetConfig
from repro.graph import LiveWindow
from repro.parallel import FaultTolerance
from repro.sampling import (
    OneSideNodeSampler,
    RandomEdgeSampler,
    SamplePlan,
    StableEdgeSampler,
)


@pytest.fixture(scope="module")
def graph():
    g = chung_lu_bipartite(400, 150, 3000, rng=4)
    rng = np.random.default_rng(8)
    return g.with_weights(rng.integers(1, 64, size=g.n_edges) / 2.0)


def _config(sampler, **kwargs):
    return EnsemFDetConfig(
        sampler=sampler,
        n_samples=9,
        fdet=FdetConfig(max_blocks=4),
        seed=21,
        **kwargs,
    )


def _tables(result):
    return result.vote_table.user_votes, result.vote_table.merchant_votes


class TestPlanShards:
    def test_near_equal_contiguous_groups(self):
        plan = plan_shards(10, 3)
        assert plan.members == ((0, 1, 2, 3), (4, 5, 6), (7, 8, 9))
        assert plan.n_shards == 3

    def test_caps_at_member_count(self):
        assert plan_shards(2, 8).members == ((0,), (1,))

    def test_single_shard(self):
        assert plan_shards(4, 1).members == ((0, 1, 2, 3),)

    def test_rejects_non_positive(self):
        with pytest.raises(DetectionError):
            plan_shards(4, 0)


class TestShardedParity:
    @pytest.mark.parametrize("shards", [2, 3, 9])
    @pytest.mark.parametrize("make", [lambda: RandomEdgeSampler(0.35),
                                      lambda: StableEdgeSampler(0.35, stripe=64)],
                             ids=["random_edge", "stable_edge"])
    def test_matches_unsharded(self, graph, shards, make):
        reference = _tables(EnsemFDet(_config(make())).fit(graph))
        sharded = EnsemFDet(_config(make(), shards=shards)).fit(graph)
        assert _tables(sharded) == reference

    @pytest.mark.parametrize("mmap", [False, True])
    def test_matches_unsharded_out_of_core(self, graph, mmap):
        make = lambda: StableEdgeSampler(0.35, stripe=64)
        reference = _tables(EnsemFDet(_config(make())).fit(graph))
        sharded = EnsemFDet(_config(make(), shards=3, mmap=mmap)).fit(graph)
        assert _tables(sharded) == reference

    def test_windowed_parity(self, graph):
        alive = np.ones(graph.n_edges, dtype=bool)
        alive[1::4] = False
        window = LiveWindow(
            graph=graph,
            alive=alive,
            edge_ids=np.arange(graph.n_edges, dtype=np.int64),
            watermark=graph.n_edges,
        )
        make = lambda: StableEdgeSampler(0.35, stripe=64)
        reference = _tables(EnsemFDet(_config(make())).fit_window(window))
        sharded = EnsemFDet(_config(make(), shards=3)).fit_window(window)
        assert _tables(sharded) == reference

    def test_process_backend_parity(self, graph):
        make = lambda: StableEdgeSampler(0.35, stripe=64)
        reference = _tables(EnsemFDet(_config(make())).fit(graph))
        sharded = EnsemFDet(
            _config(make(), shards=2, executor="process", n_workers=2)
        ).fit(graph)
        assert _tables(sharded) == reference


class TestShardingErrors:
    def test_node_plans_rejected(self, graph):
        config = _config(OneSideNodeSampler(0.5, "user"), shards=2)
        with pytest.raises(DetectionError, match="edges.*stripes|stripes.*edges"):
            EnsemFDet(config).fit(graph)

    def test_member_parent_ids_rejects_node_kind(self):
        plan = SamplePlan(kind="nodes", users=np.array([0, 1]), merchants=np.array([0]))
        with pytest.raises(DetectionError, match="run unsharded"):
            _member_parent_ids(plan, 10, None)

    def test_config_rejects_zero_shards(self):
        with pytest.raises(DetectionError):
            EnsemFDetConfig(shards=0)


class TestShardFaults:
    def test_shard_worker_crash_degrades_via_quorum(self, graph):
        """A member crashing inside a shard is retried, then dropped; the
        run survives on quorum exactly like an unsharded fit.

        Fault indices are shard-local (each shard's run_members numbers its
        members from 0), so the plan is bounded to two firings — the first
        attempt and its retry, both inside shard 0."""
        arm("raise:point=member.detect,index=2,attempt=-1,times=2")
        try:
            result = EnsemFDet(
                _config(
                    StableEdgeSampler(0.35, stripe=64),
                    shards=3,
                    tolerance=FaultTolerance(max_retries=1, min_quorum=0.5),
                )
            ).fit(graph)
        finally:
            disarm()
        failed = {f.index for f in result.failed_members}
        assert failed == {2}
        assert any(entry.get("shard") == 0 for entry in result.retry_log)

    def test_shard_crash_below_quorum_raises(self, graph):
        arm("raise:point=member.detect,attempt=-1,times=-1")
        try:
            with pytest.raises(QuorumError):
                EnsemFDet(
                    _config(
                        StableEdgeSampler(0.35, stripe=64),
                        shards=3,
                        tolerance=FaultTolerance(max_retries=0, min_quorum=0.5),
                    )
                ).fit(graph)
        finally:
            disarm()
