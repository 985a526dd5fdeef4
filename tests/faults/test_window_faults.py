"""Fault injection at the window-compaction point.

Compaction is a pure memory optimisation: an injected failure at
``window.compact`` must defer it (never corrupt the accumulator), leave
windowed detection bit-identical to a cold fit on the live window, and
never interfere with v3 state saves (``window_state`` is pure array
filtering with no fault points on its path).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import uniform_bipartite
from repro.ensemble import EnsemFDet, EnsemFDetConfig, IncrementalEnsemFDet
from repro.errors import InjectedFault
from repro.faults import arm, disarm
from repro.fdet import FdetConfig
from repro.graph import GraphAccumulator, WindowConfig
from repro.sampling import StableEdgeSampler


@pytest.fixture(autouse=True)
def _clean_faults():
    disarm()
    yield
    disarm()


def _full_accumulator() -> GraphAccumulator:
    """A windowed accumulator with more than half its rows dead: compaction is due."""
    acc = GraphAccumulator(window=WindowConfig(max_batches=1))
    acc.append(np.arange(10), np.arange(10) % 4)
    acc.append(np.arange(10, 16), np.arange(6) % 4)
    acc.expire()  # 10 of 16 rows dead: dead_fraction 0.625 > 0.5
    return acc


class TestCompactionFaults:
    def test_compact_fires_before_mutation(self):
        acc = _full_accumulator()
        before = acc.window()
        arm("raise:point=window.compact")
        with pytest.raises(InjectedFault):
            acc.compact()
        after = acc.window()
        # nothing moved: same stored rows, same liveness, same ids
        assert after.graph.n_edges == before.graph.n_edges
        assert np.array_equal(after.alive, before.alive)
        assert np.array_equal(after.edge_ids, before.edge_ids)

    def test_maybe_compact_defers_on_injected_fault(self):
        acc = _full_accumulator()
        arm("raise:point=window.compact")
        assert acc.maybe_compact() is False
        # the plan fired once (times=1); the next crossing compacts
        assert acc.maybe_compact() is True
        assert acc.window().graph.n_edges == acc.window().n_live

    def test_reads_unaffected_while_compaction_is_blocked(self):
        acc = _full_accumulator()
        expected = acc.live_graph()
        arm("raise:point=window.compact,times=-1")  # every crossing fails
        assert acc.maybe_compact() is False
        live = acc.live_graph()
        assert live == expected
        assert np.array_equal(live.edge_users, expected.edge_users)


def _config() -> EnsemFDetConfig:
    return EnsemFDetConfig(
        sampler=StableEdgeSampler(0.4, stripe=32),
        n_samples=6,
        fdet=FdetConfig(max_blocks=6),
        executor="serial",
        seed=3,
    )


def _stream(detector):
    rng = np.random.default_rng(11)
    for step in range(4):
        detector.update(
            rng.integers(0, 60, 40),
            rng.integers(0, 30, 40),
            timestamp=float(step + 1),
        )


class TestWindowedDetectionUnderChaos:
    def test_updates_stay_bitwise_correct_with_compaction_blocked(self):
        graph = uniform_bipartite(60, 30, 600, rng=0)
        config = _config()
        # tiny window: once the fit's batch expires, compaction is due
        window = WindowConfig(max_batches=2)
        chaotic = IncrementalEnsemFDet(config, window=window)
        chaotic.fit(graph, timestamp=0.0)
        arm("raise:point=window.compact,times=-1")
        _stream(chaotic)
        snapshot = chaotic.window()
        # compaction really was blocked: tombstones piled up
        assert snapshot.graph.n_edges > snapshot.n_live
        disarm()

        calm = IncrementalEnsemFDet(config, window=window)
        calm.fit(graph, timestamp=0.0)
        _stream(calm)
        assert chaotic.vote_table.user_votes == calm.vote_table.user_votes
        assert chaotic.vote_table.merchant_votes == calm.vote_table.merchant_votes

        cold = EnsemFDet(config).fit_window(snapshot)
        assert cold.vote_table.user_votes == chaotic.vote_table.user_votes

    def test_v3_save_survives_compaction_chaos(self, tmp_path):
        graph = uniform_bipartite(60, 30, 600, rng=0)
        config = _config()
        window = WindowConfig(max_batches=2)
        detector = IncrementalEnsemFDet(config, window=window)
        detector.fit(graph, timestamp=0.0)
        arm("raise:point=window.compact,times=-1")
        _stream(detector)
        path = tmp_path / "state.npz"
        detector.save(path)  # window_state never hits a fault point
        disarm()

        restored = IncrementalEnsemFDet.load(path)
        assert restored.window_config == window
        assert restored.vote_table.user_votes == detector.vote_table.user_votes
        # the restored accumulator is compacted (saves persist live rows only)
        snapshot = restored.window()
        assert snapshot.graph.n_edges == snapshot.n_live
        assert snapshot.watermark == detector.window().watermark
