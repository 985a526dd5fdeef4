"""A worker that cannot map the parent's store file fails its chunk with
kind ``transport``, and the retry recovers bitwise: in the parent, or, for
a round that retries a timed-out member, on a fresh pool that maps the
file again."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import uniform_bipartite
from repro.ensemble import EnsemFDet, EnsemFDetConfig, detect_on_plans, runner
from repro.ensemble.runner import _detect_member_chunk
from repro.errors import GraphError, InjectedFault
from repro.faults import arm, disarm, fired_log
from repro.faults.chaos import leaked_spills
from repro.fdet import FdetConfig, PeelEngine
from repro.graph import GraphStore, StoreLayout
from repro.parallel import FaultTolerance
from repro.sampling import RandomEdgeSampler, resolve_rng


@pytest.fixture(autouse=True)
def _clean_faults():
    disarm()
    yield
    disarm()


@pytest.fixture(scope="module")
def graph():
    return uniform_bipartite(60, 30, 300, rng=0)


def _config(executor="serial", n_workers=None, **tolerance_kwargs):
    return EnsemFDetConfig(
        sampler=RandomEdgeSampler(0.4),
        n_samples=6,
        fdet=FdetConfig(max_blocks=6),
        executor=executor,
        n_workers=n_workers,
        seed=3,
        tolerance=FaultTolerance(**tolerance_kwargs),
    )


def _tables_equal(a, b) -> bool:
    return (
        a.n_samples == b.n_samples
        and dict(a.user_votes) == dict(b.user_votes)
        and dict(a.merchant_votes) == dict(b.merchant_votes)
    )


def _chunk(graph, layout):
    """Worker-chunk arguments for members 0-2, with ``layout`` as the parent."""
    config = _config()
    plans = config.sampler.plan_many(graph, 3, resolve_rng(config.seed))
    return (layout, config.fdet, list(enumerate(plans)), 0, 1)


def test_mmap_open_failure_in_a_timed_out_round_retries_in_the_parent(graph, monkeypatch):
    """Only a round that retries a timed-out member goes back to the pool,
    where it maps a fresh spill; once that map fails too, the next round
    runs in the parent."""
    reference = EnsemFDet(_config()).fit(graph)
    real_attempt = runner._run_pooled

    def attempt_with_a_hung_member(graph, work, config, n_workers, attempt, *rest):
        results, failures, transport = real_attempt(
            graph, work, config, n_workers, attempt, *rest
        )
        if attempt == 0:  # as if member 0's worker had also hung past its deadline
            failures[0] = ("timeout", TimeoutError("member 0 passed its deadline"))
        return results, failures, transport

    monkeypatch.setattr(runner, "_run_pooled", attempt_with_a_hung_member)
    # every worker's map fails, whichever chunks it takes
    arm("raise:point=mmap.open,times=-1")
    result = EnsemFDet(_config(executor="process", n_workers=2)).fit(graph)
    assert not result.failed_members
    assert _tables_equal(result.vote_table, reference.vote_table)
    first, pooled, in_parent = result.retry_log
    assert (first["backend"], first["transport"]) == ("process", "mmap")
    assert first["kinds"] == {"0": "timeout", **{str(i): "transport" for i in range(1, 6)}}
    # the timed-out round went back to a pool over a fresh spill…
    assert (pooled["backend"], pooled["transport"]) == ("process", "mmap")
    assert pooled["kinds"] == {str(i): "transport" for i in range(6)}
    # …and the round after it ran in the parent, which maps nothing
    assert (in_parent["backend"], in_parent["transport"]) == ("serial", "local")
    assert in_parent["failed"] == []
    assert leaked_spills() == []


def test_mmap_open_failure_degrades_on_the_fast_engine(graph):
    reference = EnsemFDet(_config()).fit(graph)
    # every worker's map fails, whichever chunks it takes
    arm("raise:point=mmap.open,times=-1")
    result = EnsemFDet(_config(executor="process", n_workers=2)).fit(graph)
    assert not result.failed_members
    assert _tables_equal(result.vote_table, reference.vote_table)
    first, retry = result.retry_log[:2]
    assert (first["backend"], first["transport"]) == ("process", "mmap")
    assert first["kinds"] == {str(i): "transport" for i in range(6)}
    # a failed map does not indict the kernel: the parent retries on it
    assert (retry["backend"], retry["engine"]) == ("serial", PeelEngine.FAST)
    assert retry["failed"] == []
    assert leaked_spills() == []


def test_worker_chunk_labels_a_failed_map_transport(graph, tmp_path):
    layout = GraphStore.from_graph(graph).save(tmp_path / "g.store")
    arm("raise:point=mmap.open")
    results, failures = _detect_member_chunk(_chunk(graph, layout))
    assert results == {}
    assert sorted(failures) == [0, 1, 2]
    assert all(kind == "transport" for kind, _ in failures.values())
    assert all(isinstance(error, InjectedFault) for _, error in failures.values())
    assert [point for _, point, _ in fired_log()] == ["mmap.open"]


def test_worker_chunk_of_missing_store_file_is_a_transport_failure(graph, tmp_path):
    layout = StoreLayout(
        path=str(tmp_path / "gone.store"), n_users=60, n_merchants=30,
        n_edges=300, weighted=False,
    )
    results, failures = _detect_member_chunk(_chunk(graph, layout))
    assert results == {}
    assert {kind for kind, _ in failures.values()} == {"transport"}
    assert all(isinstance(error, GraphError) for _, error in failures.values())


def test_worker_chunk_maps_the_file_and_matches_serial(graph, tmp_path):
    layout = GraphStore.from_graph(graph).save(tmp_path / "g.store")
    chunk = _chunk(graph, layout)
    results, failures = _detect_member_chunk(chunk)
    assert failures == {}
    _, fdet_config, members, *_ = chunk
    serial = detect_on_plans(graph, [plan for _, plan in members], fdet_config)
    assert sorted(results) == [0, 1, 2]
    for index, expected in enumerate(serial):
        got = results[index].result
        assert np.array_equal(got.densities, expected.result.densities)
        assert np.array_equal(got.detected_users(), expected.result.detected_users())
        assert np.array_equal(got.detected_merchants(), expected.result.detected_merchants())
