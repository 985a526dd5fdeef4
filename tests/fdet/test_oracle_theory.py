"""The oracle against theory: the greedy peel's half-approximation, and Definition 3.

Charikar's greedy peel, with Fraudar's column weights, finds a node prefix
whose density f(S)/|S| is at least half the densest subgraph's whenever the
edge weights are fixed and non-negative; f(S) is the weight of the edges
with both ends in S. Two checks hold every engine to that bound:

* on random graphs of 1-6 nodes per side, against the exact optimum over
  every node subset, under unit, φ and exponential weights;
* on planted dense blocks with camouflage, far too large to enumerate,
  against the planted block's own density, a lower bound on the optimum
  (Fraudar's camouflage resistance).

Each runs through the reference and the fast ``greedy_peel`` and block 0 of
``Fdet.detect`` under both engines, which peels the whole graph with
weights computed on it. The truncation's k̂ is checked against Definition 3
written out as a loop.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fdet import (
    AverageDegreeDensity,
    Fdet,
    FdetConfig,
    LogWeightedDensity,
    PeelEngine,
    SecondDifferenceRule,
    greedy_peel,
)
from repro.graph import BipartiteGraph
from repro.scenarios import CamouflageScenario

#: slack for the enumeration summing edge weights in another order
ULP = 1e-12


def exact_max_density(graph: BipartiteGraph, weights: np.ndarray) -> float:
    """max f(S)/|S| over every non-empty node subset S (users, then merchants)."""
    n = graph.n_nodes
    subsets = (np.arange(1, 2**n)[:, None] >> np.arange(n)) & 1 == 1
    inside = subsets[:, graph.edge_users] & subsets[:, graph.n_users + graph.edge_merchants]
    return float(np.max(inside @ weights / subsets.sum(axis=1)))


def random_graph(rng: np.random.Generator, weighting: str) -> BipartiteGraph:
    """1-6 nodes per side, random (multi-)edges; exponential weights ride on the edges."""
    n_users, n_merchants = rng.integers(1, 7, size=2)
    n_edges = int(rng.integers(1, n_users * n_merchants + 4))
    weights = rng.exponential(1.0, n_edges) if weighting == "exponential" else None
    return BipartiteGraph(
        n_users,
        n_merchants,
        rng.integers(0, n_users, n_edges),
        rng.integers(0, n_merchants, n_edges),
        edge_weights=weights,
    )


def best_densities(graph: BipartiteGraph, metric, weights: np.ndarray) -> dict[str, float]:
    """The best density each path finds on ``graph``, with ``weights`` from ``metric``."""
    found = {}
    for engine in PeelEngine.ALL:
        found[f"greedy_peel[{engine}]"] = greedy_peel(graph, weights, engine=engine).density
        result = Fdet(FdetConfig(metric=metric, max_blocks=1, engine=engine)).detect(graph)
        found[f"Fdet.detect[{engine}] block 0"] = float(result.densities[0])
    return found


METRICS = {
    "unit": AverageDegreeDensity(),
    "phi": LogWeightedDensity(),
    "exponential": AverageDegreeDensity(),  # every edge weighs its own weight
}


@pytest.mark.parametrize("weighting", sorted(METRICS))
def test_greedy_reaches_half_the_exact_optimum(weighting):
    rng = np.random.default_rng(["exponential", "phi", "unit"].index(weighting))
    metric = METRICS[weighting]
    worst = 1.0
    for _ in range(1000):
        graph = random_graph(rng, weighting)
        weights = metric.edge_weights(graph)
        optimum = exact_max_density(graph, weights)
        for path, best in best_densities(graph, metric, weights).items():
            assert 0.5 * optimum - ULP <= best <= optimum + ULP, (path, graph)
            worst = min(worst, best / optimum)
    assert worst < 1.0  # the bound was tested, not just met by exact peels


def loop_k_hat(densities: list[float]) -> int:
    """Definition 3 written out: keep blocks up to the interior block with the
    smallest φ(i+1) − 2φ(i) + φ(i−1), the first such block on a tie."""
    n = len(densities)
    if n < 3:
        return n
    elbow, lowest = 1, None
    for i in range(1, n - 1):
        second = densities[i + 1] - 2.0 * densities[i] + densities[i - 1]
        if lowest is None or second < lowest:
            elbow, lowest = i, second
    return elbow + 1


#: a few repeated values, so second differences tie
_TIED = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])


@given(st.lists(st.one_of(_TIED, st.floats(0.0, 10.0, allow_nan=False)), max_size=14))
@settings(max_examples=300, deadline=None)
def test_truncation_is_the_first_argmin_of_second_differences(densities):
    assert SecondDifferenceRule().truncate(densities) == loop_k_hat(densities)


@given(
    seed=st.integers(0, 2**16),
    scale=st.floats(0.05, 0.3),
    intensity=st.floats(0.5, 2.0),
    density=st.floats(0.3, 1.0),
    camouflage=st.floats(0.0, 3.0),
    block_merchants=st.integers(2, 12),
)
@settings(max_examples=40, deadline=None)
def test_greedy_reaches_half_a_planted_block_under_camouflage(
    seed, scale, intensity, density, camouflage, block_merchants
):
    scenario = CamouflageScenario(
        block_merchants=block_merchants, density=density, camouflage_ratio=camouflage
    )
    instance = scenario.generate(intensity=intensity, scale=scale, seed=seed)
    graph, params = instance.dataset.graph, instance.dataset.params
    first = params["n_background_merchants"]
    in_users = np.isin(graph.user_labels, instance.fraud_users)
    in_merchants = np.isin(graph.merchant_labels, np.arange(first, first + block_merchants))
    inside = in_users[graph.edge_users] & in_merchants[graph.edge_merchants]
    assert int(inside.sum()) == params["n_block_edges"]
    for metric in (LogWeightedDensity(), AverageDegreeDensity()):
        weights = metric.edge_weights(graph)  # on the whole graph, camouflage included
        planted = float(weights[inside].sum()) / int(in_users.sum() + in_merchants.sum())
        for path, best in best_densities(graph, metric, weights).items():
            assert best >= 0.5 * planted - ULP, (path, metric)
        result = Fdet(FdetConfig(metric=metric, max_blocks=8)).detect(graph)
        assert result.k_hat == loop_k_hat(result.densities.tolist())
