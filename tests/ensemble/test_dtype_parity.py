"""Compact dtypes are storage-only: vote tables must be bitwise identical
whether the graph travels as int64/float64 or int32/float32, over every
transport (resident, the parent's own store file, a spilled store file)
and backend."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import chung_lu_bipartite
from repro.ensemble import EnsemFDet, EnsemFDetConfig
from repro.fdet import FdetConfig
from repro.graph import GraphStore
from repro.sampling import (
    OneSideNodeSampler,
    RandomEdgeSampler,
    StableEdgeSampler,
    TwoSideNodeSampler,
)

SAMPLERS = {
    "random_edge": lambda: RandomEdgeSampler(0.35),
    "stable_edge": lambda: StableEdgeSampler(0.35, stripe=64),
    "one_side": lambda: OneSideNodeSampler(0.5, "user"),
    "two_side": lambda: TwoSideNodeSampler(0.6, 0.6),
}


@pytest.fixture(scope="module")
def graph():
    g = chung_lu_bipartite(400, 150, 3000, rng=11)
    rng = np.random.default_rng(5)
    # half-integer weights narrow losslessly to float32
    return g.with_weights(rng.integers(1, 64, size=g.n_edges) / 2.0)


def _config(sampler, **kwargs):
    return EnsemFDetConfig(
        sampler=sampler,
        n_samples=8,
        fdet=FdetConfig(max_blocks=4),
        seed=13,
        **kwargs,
    )


def _tables(result):
    return result.vote_table.user_votes, result.vote_table.merchant_votes


@pytest.mark.parametrize("name", sorted(SAMPLERS))
def test_compact_store_matches_wide_fit(graph, name, tmp_path):
    """int32/float32 storage through every local transport equals the
    plain wide in-memory fit."""
    sampler = SAMPLERS[name]()
    reference = _tables(EnsemFDet(_config(sampler)).fit(graph))

    # resident compact store
    compact = GraphStore.from_graph(graph).compact()
    assert compact.edge_users.dtype == np.int32
    assert compact.edge_weights.dtype == np.float32
    assert _tables(EnsemFDet(_config(SAMPLERS[name]())).fit(compact)) == reference

    # mmap-opened store file
    path = tmp_path / f"{name}.store"
    GraphStore.from_graph(graph).save(path)
    opened = GraphStore.open(path, mmap=True)
    assert _tables(EnsemFDet(_config(SAMPLERS[name]())).fit(opened)) == reference


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_backends_agree_on_compact_store(graph, executor, tmp_path):
    sampler = StableEdgeSampler(0.35, stripe=64)
    reference = _tables(EnsemFDet(_config(sampler)).fit(graph))
    path = tmp_path / "g.store"
    GraphStore.from_graph(graph).save(path)
    opened = GraphStore.open(path, mmap=True)
    result = EnsemFDet(
        _config(StableEdgeSampler(0.35, stripe=64), executor=executor, n_workers=2)
    ).fit(opened)
    assert _tables(result) == reference
    expected = "file" if executor == "process" else "local"
    assert result.retry_log[0]["transport"] == expected


def _process_parent(store, transport, tmp_path):
    """``store`` as the process path receives it over ``transport``: its
    own store file (``"file"``) or one spill (``"mmap"``)."""
    if transport == "file":
        path = tmp_path / "parent.store"
        store.save(path)
        return GraphStore.open(path)
    return store


@pytest.mark.parametrize("transport", ["file", "mmap"])
def test_process_transports_agree(graph, transport, tmp_path):
    sampler = RandomEdgeSampler(0.35)
    reference = _tables(EnsemFDet(_config(sampler)).fit(graph))
    parent = _process_parent(GraphStore.from_graph(graph), transport, tmp_path)
    result = EnsemFDet(
        _config(RandomEdgeSampler(0.35), executor="process", n_workers=2)
    ).fit(parent)
    assert result.retry_log[0]["transport"] == transport
    assert _tables(result) == reference


def test_resident_opened_store_ships_its_file(graph, tmp_path):
    """A store file opened without mmap still reaches the workers as its
    file layout, not as pickled columns."""
    reference = _tables(EnsemFDet(_config(StableEdgeSampler(0.35, stripe=64))).fit(graph))
    path = tmp_path / "g.store"
    GraphStore.from_graph(graph).save(path)
    opened = GraphStore.open(path, mmap=False)
    assert not isinstance(opened.edge_users, np.memmap)
    result = EnsemFDet(
        _config(StableEdgeSampler(0.35, stripe=64), executor="process", n_workers=2)
    ).fit(opened)
    assert result.retry_log[0]["transport"] == "file"
    assert _tables(result) == reference


def _windowed_store() -> GraphStore:
    """A store whose liveness columns mark every fifth edge expired."""
    g = chung_lu_bipartite(300, 120, 2000, rng=2)
    alive = np.ones(g.n_edges, dtype=bool)
    alive[::5] = False
    return GraphStore(
        n_users=g.n_users,
        n_merchants=g.n_merchants,
        edge_users=g.edge_users,
        edge_merchants=g.edge_merchants,
        edge_weights=None,
        user_labels=g.user_labels,
        merchant_labels=g.merchant_labels,
        edge_ids=np.arange(g.n_edges, dtype=np.int64),
        edge_alive=alive,
    )


@pytest.mark.parametrize("transport", ["file", "mmap"])
def test_windowed_store_on_process_pool(transport, tmp_path):
    """Whatever carries a windowed store to the workers keeps dead edges dead."""
    store = _windowed_store()
    reference = _tables(EnsemFDet(_config(StableEdgeSampler(0.4, stripe=64))).fit(store))
    parent = _process_parent(store, transport, tmp_path)
    result = EnsemFDet(
        _config(StableEdgeSampler(0.4, stripe=64), executor="process", n_workers=2)
    ).fit(parent)
    assert result.retry_log[0]["transport"] == transport
    assert _tables(result) == reference


def test_windowed_expiry_on_mmap_store(tmp_path):
    """A windowed store round-tripped through a file keeps dead edges dead."""
    g = chung_lu_bipartite(300, 120, 2000, rng=2)
    store = _windowed_store()
    sampler = StableEdgeSampler(0.4, stripe=64)
    reference = _tables(EnsemFDet(_config(sampler)).fit(store))

    path = tmp_path / "w.store"
    store.save(path)
    opened = GraphStore.open(path, mmap=True)
    assert _tables(EnsemFDet(_config(StableEdgeSampler(0.4, stripe=64))).fit(opened)) == reference

    # and the mask genuinely excludes expired edges: a fit on the fully
    # alive graph must differ from the windowed one somewhere
    full = _tables(EnsemFDet(_config(StableEdgeSampler(0.4, stripe=64))).fit(g))
    assert full != reference


def test_compact_is_lossless_only(graph):
    """Weights that do not survive float32 stay float64 under compact()."""
    lossy = graph.with_weights(np.full(graph.n_edges, 0.1))
    store = GraphStore.from_graph(lossy).compact()
    assert store.edge_weights.dtype == np.float64
    assert store.edge_users.dtype == np.int32
