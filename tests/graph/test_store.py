"""Unit tests for the columnar GraphStore and its spill-file lifecycle."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from repro.errors import GraphError
from repro.faults.chaos import leaked_spills
from repro.graph import BipartiteGraph, GraphStore
from repro.graph.store import SPILL_PREFIX


@pytest.fixture
def weighted_graph() -> BipartiteGraph:
    rng = np.random.default_rng(2)
    users = rng.integers(0, 50, size=400)
    merchants = rng.integers(0, 20, size=400)
    weights = rng.uniform(0.1, 3.0, size=400)
    return BipartiteGraph(50, 20, users, merchants, edge_weights=weights)


def assert_same_columns(graph: BipartiteGraph, other: BipartiteGraph) -> None:
    assert (graph.n_users, graph.n_merchants) == (other.n_users, other.n_merchants)
    assert np.array_equal(graph.edge_users, other.edge_users)
    assert np.array_equal(graph.edge_merchants, other.edge_merchants)
    assert (graph.edge_weights is None) == (other.edge_weights is None)
    if graph.edge_weights is not None:
        assert np.array_equal(graph.edge_weights, other.edge_weights)
    assert np.array_equal(graph.user_labels, other.user_labels)
    assert np.array_equal(graph.merchant_labels, other.merchant_labels)


class TestGraphStore:
    def test_from_graph_is_zero_copy(self, weighted_graph):
        store = GraphStore.from_graph(weighted_graph)
        assert store.edge_users is weighted_graph.edge_users
        assert store.edge_weights is weighted_graph.edge_weights

    def test_to_graph_round_trip(self, weighted_graph):
        round_tripped = GraphStore.from_graph(weighted_graph).to_graph()
        assert_same_columns(weighted_graph, round_tripped)

    def test_nbytes_accounts_for_all_columns(self, weighted_graph):
        store = GraphStore.from_graph(weighted_graph)
        expected = 8 * (400 + 400 + 50 + 20 + 400)
        assert store.nbytes == expected

    def test_layout_matches_nbytes(self, weighted_graph):
        # the spill holds the compacted columns
        store = GraphStore.from_graph(weighted_graph)
        with store.export_shared() as spill:
            assert spill.layout.nbytes == store.compact().nbytes
            assert spill.layout.weighted

    def test_layout_is_small_and_picklable(self, weighted_graph):
        with GraphStore.from_graph(weighted_graph).export_shared() as spill:
            payload = pickle.dumps(spill.layout)
            assert len(payload) < 512
            assert pickle.loads(payload) == spill.layout


class TestSpillLifecycle:
    def test_export_open_round_trip(self, weighted_graph):
        with GraphStore.from_graph(weighted_graph).export_shared() as spill:
            view = GraphStore.open(spill.layout.path)
            assert_same_columns(weighted_graph, view.to_graph())
            for column in ("edge_users", "edge_merchants", "edge_weights"):
                assert not getattr(view, column).flags.writeable

    def test_open_store_outlives_its_spill(self, weighted_graph):
        # a worker that mapped the spill keeps reading it after the parent
        # has disposed of the file
        spill = GraphStore.from_graph(weighted_graph).export_shared()
        view = GraphStore.open(spill.layout.path)
        spill.dispose()
        assert not os.path.exists(spill.layout.path)
        assert_same_columns(weighted_graph, view.to_graph())

    def test_open_after_dispose_is_a_graph_error(self, weighted_graph):
        # what a worker that starts its chunk too late meets: a typed error,
        # which the runner records as a transport failure
        spill = GraphStore.from_graph(weighted_graph).export_shared()
        spill.dispose()
        with pytest.raises(GraphError):
            GraphStore.open(spill.layout.path)

    def test_dispose_removes_spill_directory(self, weighted_graph):
        spill = GraphStore.from_graph(weighted_graph).export_shared()
        assert os.path.dirname(spill.directory) == tempfile.gettempdir()
        assert os.path.basename(spill.directory).startswith(f"{SPILL_PREFIX}{os.getpid()}_")
        assert os.path.exists(spill.layout.path)
        spill.dispose()
        assert spill.disposed
        assert not os.path.exists(spill.directory)
        spill.dispose()  # idempotent

    def test_context_manager_disposes(self, weighted_graph):
        with GraphStore.from_graph(weighted_graph).export_shared() as spill:
            directory = spill.directory
        assert not os.path.exists(directory)

    def test_failed_write_removes_spill_directory(self, weighted_graph, monkeypatch):
        # part of the file is written, then the volume fills up
        def full(store, path, compact=True, durable=True):
            with open(path, "wb") as handle:
                handle.write(b"partial")
            raise OSError("spill volume full")

        before = leaked_spills()
        monkeypatch.setattr(GraphStore, "_write", full)
        with pytest.raises(OSError, match="volume full"):
            GraphStore.from_graph(weighted_graph).export_shared()
        monkeypatch.undo()
        assert leaked_spills() == before

    def test_spill_removes_directories_of_dead_owners(self, weighted_graph, monkeypatch, tmp_path):
        # a SIGKILLed parent leaves its spill behind; the next spill reclaims it
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        exited = subprocess.Popen([sys.executable, "-c", "pass"])
        exited.wait()
        dead = tmp_path / f"{SPILL_PREFIX}{exited.pid}_orphan"
        live = tmp_path / f"{SPILL_PREFIX}{os.getpid()}_sibling"
        foreign = tmp_path / "repro_unrelated_1"
        for directory in (dead, live, foreign):
            directory.mkdir()
            (directory / "graph.store").write_bytes(b"x")
        with GraphStore.from_graph(weighted_graph).export_shared():
            assert not dead.exists()
            assert live.exists() and foreign.exists()
        assert leaked_spills() == [live.name]

    def test_spill_skips_fsync_and_save_keeps_it(self, weighted_graph, monkeypatch, tmp_path):
        synced = []
        monkeypatch.setattr(os, "fsync", synced.append)
        store = GraphStore.from_graph(weighted_graph)
        with store.export_shared():
            assert synced == []  # a throwaway file read through the page cache
        store.save(tmp_path / "g.store")
        assert len(synced) == 1

    def test_spill_is_compacted_and_keeps_window_columns(self):
        alive = np.array([True, False, True, True])
        store = GraphStore(
            n_users=3,
            n_merchants=2,
            edge_users=np.array([0, 1, 2, 2]),
            edge_merchants=np.array([0, 1, 0, 1]),
            edge_weights=np.array([0.5, 1.0, 2.0, 4.0]),
            user_labels=np.array([10, 11, 12]),
            merchant_labels=np.array([20, 21]),
            edge_ids=np.array([3, 4, 5, 6]),
            edge_alive=alive,
        )
        with store.export_shared() as spill:
            layout = spill.layout
            assert (layout.id_dtype, layout.weight_dtype) == ("int32", "float32")
            assert layout.windowed
            view = GraphStore.open(layout.path)
            assert np.array_equal(view.edge_alive, alive)
            assert np.array_equal(view.edge_ids, store.edge_ids)
            assert np.array_equal(view.edge_weights, store.edge_weights)

    def test_unweighted_and_empty_graphs_export(self):
        for graph in (
            BipartiteGraph.from_edges([(0, 0), (1, 1)]),
            BipartiteGraph.empty(3, 2),
        ):
            with GraphStore.from_graph(graph).export_shared() as spill:
                view = GraphStore.open(spill.layout.path)
                assert_same_columns(graph, view.to_graph())
