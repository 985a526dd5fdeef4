"""Shared fixtures for the test suite."""

from __future__ import annotations

import errno
import os

import numpy as np
import pytest

from repro.datasets import FraudBlockSpec, inject_fraud_blocks, toy_dataset, uniform_bipartite
from repro.graph import BipartiteGraph, GraphStore
from repro.graph.store import SPILL_PREFIX


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_graph() -> BipartiteGraph:
    """4 users x 3 merchants, 6 edges — hand-checkable."""
    return BipartiteGraph.from_edges(
        [(0, 0), (0, 1), (1, 0), (2, 2), (3, 1), (3, 2)],
        n_users=4,
        n_merchants=3,
    )


@pytest.fixture
def clique_graph() -> BipartiteGraph:
    """Complete 5x4 bipartite graph — the densest possible block."""
    return BipartiteGraph.from_edges(
        [(u, v) for u in range(5) for v in range(4)], n_users=5, n_merchants=4
    )


@pytest.fixture
def planted_graph(rng):
    """A sparse background with one dense planted block; returns (graph, truth)."""
    background = uniform_bipartite(200, 120, 350, rng=rng)
    injection = inject_fraud_blocks(
        background,
        [FraudBlockSpec(n_users=15, n_merchants=6, density=0.8, reuse_merchant_fraction=0.0)],
        rng,
    )
    return injection.graph, injection


@pytest.fixture(scope="session")
def toy():
    """The shared deterministic toy dataset (session-scoped: it is immutable)."""
    return toy_dataset(seed=0)


@pytest.fixture
def unwritable_spill(monkeypatch):
    """Process attempts cannot spill a resident parent: the spill directory
    is made, then writing the file into it raises ``OSError`` (a full spill
    volume). Store files saved anywhere else are written as usual."""
    write = GraphStore._write

    def full_volume(store, path, *args, **kwargs):
        if SPILL_PREFIX in os.fspath(path):
            raise OSError(errno.ENOSPC, "spill volume full")
        return write(store, path, *args, **kwargs)

    monkeypatch.setattr(GraphStore, "_write", full_volume)
