"""Unit tests for the rolling-window liveness layer.

Covers the :class:`WindowConfig` retention policy, the windowed
:class:`GraphAccumulator` verbs (append/retract/expire/compact), the
:class:`LiveWindow` snapshot invariants, and the persist/restore
round-trip (``window_state`` / ``restore_window``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import BipartiteGraph, GraphAccumulator, WindowConfig
from repro.graph.window import COMPACT_DEAD_FRACTION, LiveWindow


def _windowed(config: WindowConfig) -> GraphAccumulator:
    return GraphAccumulator(window=config)


def _append_batch(acc, offset: int, size: int = 5, timestamp=None):
    users = np.arange(offset, offset + size, dtype=np.int64)
    merchants = np.arange(offset, offset + size, dtype=np.int64) % 3
    return acc.append(users, merchants, timestamp=timestamp)


BAD_TIMESTAMPS = [float("nan"), float("inf"), float("-inf"), "noon"]


class TestWindowConfig:
    def test_window_with_no_bound_expires_nothing(self):
        config = WindowConfig()
        assert not config.bounded
        assert WindowConfig(max_batches=1).bounded and WindowConfig(horizon=1.0).bounded
        assert WindowConfig.from_dict(config.as_dict()) == config
        acc = _windowed(WindowConfig())
        for i in range(4):
            _append_batch(acc, 5 * i, timestamp=10.0**i)
            assert acc.expire().size == 0
        assert acc.window().n_live == 20
        # retraction and compaction still work, and ids survive compaction
        assert np.array_equal(acc.retract(np.arange(11), np.arange(11) % 3), np.arange(11))
        assert acc.maybe_compact() is True
        window = acc.window()
        assert (window.watermark, window.n_live, window.graph.n_edges) == (20, 9, 9)
        assert np.array_equal(window.edge_ids, np.arange(11, 20))

    def test_rejects_nonpositive_batches(self):
        with pytest.raises(GraphError, match="max_batches"):
            WindowConfig(max_batches=0)

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(GraphError, match="horizon"):
            WindowConfig(horizon=0.0)

    def test_compaction_threshold_is_not_a_setting(self):
        with pytest.raises(TypeError):
            WindowConfig(max_batches=2, compact_threshold=0.3)
        # an archive's stored value is read and ignored
        archived = {"max_batches": 4, "horizon": 10.0, "compact_threshold": 0.25}
        assert WindowConfig.from_dict(archived) == WindowConfig(max_batches=4, horizon=10.0)
        assert "compact_threshold" not in WindowConfig(max_batches=4).as_dict()

    @pytest.mark.parametrize(
        "config",
        [
            WindowConfig(max_batches=3),
            WindowConfig(horizon=2.5),
            WindowConfig(max_batches=4, horizon=10.0),
        ],
    )
    def test_dict_round_trip(self, config):
        assert WindowConfig.from_dict(config.as_dict()) == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(GraphError, match="unknown window config keys"):
            WindowConfig.from_dict({"max_batches": 2, "ttl": 5})

    def test_from_dict_rejects_non_mapping(self):
        with pytest.raises(GraphError, match="mapping"):
            WindowConfig.from_dict([2, 3])


class TestWindowedAppend:
    def test_batch_ids_are_append_positions(self):
        acc = _windowed(WindowConfig(max_batches=4))
        assert _append_batch(acc, 0, size=5) == (0, 5)
        assert _append_batch(acc, 5, size=3) == (5, 8)
        window = acc.window()
        assert window.watermark == 8
        assert window.n_live == 8
        assert np.array_equal(window.edge_ids, np.arange(8, dtype=np.int64))
        assert window.alive.all()

    def test_timestamps_default_to_ordinal_time(self):
        acc = _windowed(WindowConfig(horizon=2.5))
        _append_batch(acc, 0, timestamp=10.0)
        _append_batch(acc, 5)  # defaults to 11.0
        _append_batch(acc, 10)  # defaults to 12.0
        expired = acc.expire()
        # horizon 2.5 behind newest (12.0) keeps 10.0 — nothing expires yet
        assert expired.size == 0
        _append_batch(acc, 15, timestamp=13.0)
        assert acc.expire().size == 5  # batch 0 (10.0 < 13.0 - 2.5) drops

    def test_timestamps_must_not_decrease(self):
        acc = _windowed(WindowConfig(horizon=5.0))
        _append_batch(acc, 0, timestamp=3.0)
        with pytest.raises(GraphError, match="non-decreasing"):
            _append_batch(acc, 5, timestamp=2.0)
        # the rejected batch left nothing behind: no label, edge or batch
        window = acc.window()
        assert (window.watermark, window.n_live, acc.n_edges) == (5, 5, 5)
        assert (acc.n_users, acc.n_merchants) == (5, 3)
        assert acc.window_state()["batches"] == [[0, 5, 3.0]]
        # and the next in-order batch lands whole, its rows live
        assert _append_batch(acc, 5, timestamp=3.0) == (5, 10)
        window = acc.window()
        assert (window.watermark, window.n_live, window.graph.n_edges) == (10, 10, 10)
        assert window.alive.size == window.graph.n_edges

    @pytest.mark.parametrize("bad", [[1], {}, "later", None])
    def test_check_append_changes_nothing(self, bad):
        acc = _windowed(WindowConfig(horizon=5.0))
        _append_batch(acc, 0, timestamp=3.0)
        with pytest.raises(GraphError):
            acc.check_append([9], [9], timestamp=2.0 if bad is None else bad)
        acc.check_append([9], [9], timestamp=3.0)
        assert (acc.n_users, acc.n_edges, acc.window().watermark) == (5, 5, 5)

    def test_window_with_no_bound_keeps_its_newest_batch_record(self):
        acc = _windowed(WindowConfig())
        for i in range(6):
            _append_batch(acc, 5 * i)
        assert acc.window_state()["batches"] == [[25, 30, 5.0]]
        # the record is the clock the next batch is checked against
        with pytest.raises(GraphError, match="non-decreasing"):
            _append_batch(acc, 30, timestamp=4.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_timestamp_rejected(self, bad):
        acc = _windowed(WindowConfig(horizon=5.0))
        _append_batch(acc, 0, timestamp=3.0)
        with pytest.raises(GraphError, match="finite"):
            _append_batch(acc, 5, timestamp=bad)
        # nothing was recorded: the window and its clock are as they were
        window = acc.window()
        assert (window.watermark, window.n_live) == (5, 5)
        with pytest.raises(GraphError):
            _append_batch(acc, 5, timestamp=2.0)

    def test_timestamp_rejected_without_window(self):
        acc = GraphAccumulator()
        with pytest.raises(GraphError):
            _append_batch(acc, 0, timestamp=1.0)

    @pytest.mark.parametrize("config", [WindowConfig(), WindowConfig(horizon=2.0)])
    @pytest.mark.parametrize("bad", BAD_TIMESTAMPS, ids=repr)
    def test_seed_timestamp_must_be_a_finite_number(self, config, bad):
        """A NaN seed would let any later batch through and then expire the
        seed; an infinite one would refuse every later finite batch."""
        graph = BipartiteGraph.from_edges([(0, 0), (1, 0), (1, 1)])
        with pytest.raises(GraphError, match="timestamps must be"):
            GraphAccumulator.from_graph(graph, window=config, timestamp=bad)


class TestExpire:
    def test_batch_count_window_drops_oldest(self):
        acc = _windowed(WindowConfig(max_batches=2))
        for i in range(4):
            _append_batch(acc, 5 * i, size=5)
        expired = acc.expire()
        assert np.array_equal(expired, np.arange(10, dtype=np.int64))
        window = acc.window()
        assert window.n_live == 10
        assert not window.alive[:10].any() and window.alive[10:].all()
        # a second expire is idempotent
        assert acc.expire().size == 0

    def test_horizon_window_uses_tightest_bound(self):
        acc = _windowed(WindowConfig(max_batches=10, horizon=1.5))
        _append_batch(acc, 0, timestamp=0.0)
        _append_batch(acc, 5, timestamp=1.0)
        _append_batch(acc, 10, timestamp=2.0)
        expired = acc.expire()
        # 0.0 < 2.0 - 1.5: batch 0 is out despite max_batches allowing it
        assert np.array_equal(expired, np.arange(5, dtype=np.int64))

    def test_explicit_now_advances_the_clock(self):
        acc = _windowed(WindowConfig(horizon=1.0))
        _append_batch(acc, 0, timestamp=0.0)
        assert acc.expire().size == 0
        assert acc.expire(now=5.0).size == 5

    def test_expire_requires_window(self):
        acc = GraphAccumulator()
        with pytest.raises(GraphError):
            acc.expire()


class TestRetract:
    def _acc(self):
        acc = _windowed(WindowConfig(max_batches=8))
        acc.append([1, 1, 2], [7, 7, 8])
        return acc

    def test_retracts_oldest_live_copy(self):
        acc = self._acc()
        assert np.array_equal(acc.retract([1], [7]), np.array([0], dtype=np.int64))
        # the second copy of (1, 7) is still live
        assert acc.window().n_live == 2
        assert np.array_equal(acc.retract([1], [7]), np.array([1], dtype=np.int64))

    def test_duplicate_pairs_retract_two_oldest(self):
        acc = self._acc()
        assert np.array_equal(
            acc.retract([1, 1], [7, 7]), np.array([0, 1], dtype=np.int64)
        )

    def test_missing_pair_raises(self):
        acc = self._acc()
        with pytest.raises(GraphError, match=r"no live edge to retract for \(2, 7\)"):
            acc.retract([2], [7])

    def test_unknown_label_raises(self):
        acc = self._acc()
        with pytest.raises(GraphError, match="unknown user label"):
            acc.retract([99], [7])

    def test_retract_requires_window(self):
        acc = GraphAccumulator()
        acc.append([1], [2])
        with pytest.raises(GraphError):
            acc.retract([1], [2])


class TestCompact:
    def test_compact_preserves_ids_and_live_graph(self):
        acc = _windowed(WindowConfig(max_batches=2))
        for i in range(4):
            _append_batch(acc, 5 * i, size=5)
        acc.expire()
        before = acc.live_graph()
        reclaimed = acc.compact()
        assert reclaimed == 10
        window = acc.window()
        assert np.array_equal(window.edge_ids, np.arange(10, 20, dtype=np.int64))
        assert window.watermark == 20
        after = acc.live_graph()
        assert after == before
        assert np.array_equal(after.edge_users, before.edge_users)
        assert np.array_equal(after.edge_merchants, before.edge_merchants)

    def test_compact_with_no_dead_rows_is_a_noop(self):
        acc = _windowed(WindowConfig(max_batches=4))
        _append_batch(acc, 0)
        assert acc.compact() == 0

    def test_maybe_compact_waits_for_more_than_half_the_rows_dead(self):
        assert COMPACT_DEAD_FRACTION == 0.5
        acc = _windowed(WindowConfig(max_batches=1))
        _append_batch(acc, 0, size=5)
        _append_batch(acc, 5, size=5)
        acc.expire()  # 5 of 10 rows dead: not more than half
        assert acc.maybe_compact() is False
        _append_batch(acc, 10, size=5)
        acc.expire()  # 10 of 15
        assert acc.maybe_compact() is True
        assert acc.window().graph.n_edges == 5


class TestLiveWindow:
    def test_live_graph_filters_dead_rows(self):
        acc = _windowed(WindowConfig(max_batches=1))
        _append_batch(acc, 0, size=4)
        _append_batch(acc, 4, size=4)
        acc.expire()
        live = acc.live_graph()
        assert live.n_edges == 4
        # the node universe is preserved — labels keep their meaning
        assert live.n_users == acc.n_users

    def test_live_graph_is_the_stored_graph_when_all_alive(self):
        acc = _windowed(WindowConfig(max_batches=4))
        _append_batch(acc, 0)
        window = acc.window()
        assert window.live_graph() is window.graph

    def test_snapshot_is_isolated_from_later_mutation(self):
        acc = _windowed(WindowConfig(max_batches=1))
        _append_batch(acc, 0, size=4)
        snapshot = acc.window()
        _append_batch(acc, 4, size=4)
        acc.expire()
        assert snapshot.n_live == 4
        assert snapshot.watermark == 4

    def test_snapshot_arrays_survive_later_edits(self):
        """A snapshot shares the accumulator's append-only columns; no later
        append (growing them or not), retraction, expiry, weighting or
        compaction may write into what it holds."""
        acc = _windowed(WindowConfig(max_batches=2))
        offset, size = 0, 3
        _append_batch(acc, offset, size=size)
        snapshots, compactions = [], 0
        for step in range(1, 6):
            window = acc.window()
            graph = window.graph
            arrays = (window.alive, window.edge_ids, window.rows, graph.edge_users,
                      graph.edge_merchants, graph.user_labels, graph.merchant_labels)
            snapshots.append((window, [a.copy() for a in arrays]))
            acc.retract([offset], [offset % 3])  # the newest batch's first edge
            offset, size = offset + size, step + 1
            _append_batch(acc, offset, size=size, timestamp=float(step))
            if step == 3:
                acc.append([1], [1], weights=[2.0], timestamp=float(step))
            acc.expire()
            compactions += acc.maybe_compact()
        assert compactions
        for window, copies in snapshots:
            graph = window.graph
            arrays = (window.alive, window.edge_ids, window.rows, graph.edge_users,
                      graph.edge_merchants, graph.user_labels, graph.merchant_labels)
            for array, copy in zip(arrays, copies):
                assert np.array_equal(array, copy)
            assert np.array_equal(window.rows, np.flatnonzero(window.alive))

    def test_mask_validation(self):
        graph = BipartiteGraph(2, 2, [0, 1], [0, 1])
        with pytest.raises(GraphError, match="alive mask"):
            LiveWindow(
                graph=graph,
                alive=np.ones(3, dtype=bool),
                edge_ids=np.arange(2, dtype=np.int64),
                watermark=2,
            )
        with pytest.raises(GraphError, match="watermark"):
            LiveWindow(
                graph=graph,
                alive=np.ones(2, dtype=bool),
                edge_ids=np.arange(2, dtype=np.int64),
                watermark=1,
            )


class TestRestoreWindow:
    def _state(self):
        acc = _windowed(WindowConfig(max_batches=2))
        for i in range(3):
            _append_batch(acc, 5 * i, size=5)
        acc.expire()
        acc.retract([5], [2])
        return acc.window_state()

    def test_round_trip_restores_the_live_window(self):
        state = self._state()
        config = WindowConfig.from_dict(state["config"])
        acc = GraphAccumulator.restore_window(
            state["graph"],
            config,
            edge_ids=state["edge_ids"],
            watermark=state["watermark"],
            batches=state["batches"],
        )
        window = acc.window()
        assert window.watermark == state["watermark"]
        assert window.alive.all()
        assert np.array_equal(window.edge_ids, state["edge_ids"])
        assert acc.live_graph() == state["graph"]
        # the restored accumulator keeps rolling: another batch still expires
        _append_batch(acc, 40, size=5)
        assert acc.expire().size > 0

    def test_rejects_mismatched_edge_ids(self):
        state = self._state()
        config = WindowConfig.from_dict(state["config"])
        with pytest.raises(GraphError, match="edge_ids length"):
            GraphAccumulator.restore_window(
                state["graph"],
                config,
                edge_ids=state["edge_ids"][:-1],
                watermark=state["watermark"],
                batches=state["batches"],
            )

    def test_rejects_non_increasing_edge_ids(self):
        state = self._state()
        config = WindowConfig.from_dict(state["config"])
        ids = state["edge_ids"].copy()
        ids[0], ids[1] = ids[1], ids[0]
        with pytest.raises(GraphError, match="strictly increasing"):
            GraphAccumulator.restore_window(
                state["graph"],
                config,
                edge_ids=ids,
                watermark=state["watermark"],
                batches=state["batches"],
            )

    def test_rejects_watermark_below_newest_id(self):
        state = self._state()
        config = WindowConfig.from_dict(state["config"])
        with pytest.raises(GraphError, match="watermark"):
            GraphAccumulator.restore_window(
                state["graph"],
                config,
                edge_ids=state["edge_ids"],
                watermark=int(state["edge_ids"][-1]),
                batches=state["batches"],
            )

    @pytest.mark.parametrize("bad", BAD_TIMESTAMPS, ids=repr)
    def test_rejects_a_batch_record_that_is_not_a_finite_time(self, bad):
        state = self._state()
        config = WindowConfig.from_dict(state["config"])
        batches = [list(b) for b in state["batches"]]
        batches[-1][2] = bad
        with pytest.raises(GraphError, match="timestamps must be"):
            GraphAccumulator.restore_window(
                state["graph"],
                config,
                edge_ids=state["edge_ids"],
                watermark=state["watermark"],
                batches=batches,
            )

    def test_rejects_disordered_batch_records(self):
        state = self._state()
        config = WindowConfig.from_dict(state["config"])
        batches = [list(b) for b in state["batches"]][::-1]
        if len(batches) < 2:
            pytest.skip("need two batch records to disorder")
        with pytest.raises(GraphError, match="batch records"):
            GraphAccumulator.restore_window(
                state["graph"],
                config,
                edge_ids=state["edge_ids"],
                watermark=state["watermark"],
                batches=batches,
            )
