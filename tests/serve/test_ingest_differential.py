"""Differential suite: random ingest streams against cold oracles.

Streams of appends (unseen labels, repeated pairs), deletions (a pair
listed twice included), expiry by batch count and by horizon, and
compaction go through :meth:`DetectionService.ingest` on small graphs,
and so do streams on a window with no bound, which expires nothing.
After every step:

* the published vote table equals :func:`tally_votes` over the detector's
  members — the oracle of the delta tally — and a cold
  :meth:`EnsemFDet.fit_window` on the detector's window, whose stripe
  index is rebuilt from the liveness mask alone;
* the window's live edges, and its kept live rows, equal a from-scratch
  replay of the stream on a plain list of ``(append id, user, merchant)``.

Labels include the int32 and int64 edges. When every refresh of an
update fails, under either quorum policy, nothing is published and no vote
moves, and the next clean update matches a cold fit again.

Under ``REPRO_NATIVE=0`` the same streams run on reference-engine
detections, which carry no node indices.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets import uniform_bipartite
from repro.ensemble import EnsemFDet, EnsemFDetConfig, IncrementalEnsemFDet
from repro.ensemble.voting import tally_votes
from repro.errors import InjectedFault, QuorumError
from repro.faults import arm, disarm
from repro.fdet import FdetConfig
from repro.graph import LiveWindow, WindowConfig
from repro.parallel.tolerance import FaultTolerance
from repro.sampling import StableEdgeSampler
from repro.serve import DetectionService

N_USERS, N_MERCHANTS = 14, 8
#: labels at the int32 and int64 edges
EDGE_LABELS = (2**31 - 1, 2**31, -(2**63), 2**63 - 1)


@pytest.fixture(autouse=True)
def _clean_faults():
    disarm()
    yield
    disarm()


def make_config(
    n_samples: int = 4, track_appearances: bool = False, min_quorum: float = 0.5
) -> EnsemFDetConfig:
    return EnsemFDetConfig(
        sampler=StableEdgeSampler(0.5, stripe=3),
        n_samples=n_samples,
        fdet=FdetConfig(max_blocks=4),
        executor="serial",
        seed=11,
        track_appearances=track_appearances,
        tolerance=FaultTolerance(min_quorum=min_quorum),
    )


class ReplayModel:
    """The window's live edges, replayed on a plain list."""

    def __init__(self, graph, window: WindowConfig, timestamp: float = 0.0) -> None:
        users = graph.user_labels[graph.edge_users].tolist()
        merchants = graph.merchant_labels[graph.edge_merchants].tolist()
        self.window = window
        self.live = [(i, u, m) for i, (u, m) in enumerate(zip(users, merchants))]
        self.watermark = len(self.live)
        self.batches = [(0, self.watermark, timestamp)]

    def apply(self, users, merchants, removals, timestamp: float) -> None:
        for pair in removals:
            oldest = next(k for k, (_, u, m) in enumerate(self.live) if (u, m) == pair)
            del self.live[oldest]
        start = self.watermark
        self.live += [(start + k, u, m) for k, (u, m) in enumerate(zip(users, merchants))]
        self.watermark += len(users)
        self.batches.append((start, self.watermark, timestamp))
        cutoffs = [0]
        if self.window.max_batches is not None and len(self.batches) > self.window.max_batches:
            cutoffs.append(self.batches[-self.window.max_batches][0])
        if self.window.horizon is not None:
            oldest_live = timestamp - self.window.horizon
            cutoffs.append(
                next((s for s, _, ts in self.batches if ts >= oldest_live), self.watermark)
            )
        cutoff = max(cutoffs)
        self.live = [edge for edge in self.live if edge[0] >= cutoff]
        self.batches = [b for b in self.batches if b[0] >= cutoff or b[1] > cutoff]


def check_step(detector, service, model, fresh: bool = True) -> None:
    """The published table and the window against their oracles."""
    config = detector.config
    table = service.snapshot
    oracle = tally_votes(detector._samples, detector.graph, config.track_appearances)
    assert np.array_equal(detector.vote_table.user_votes.counts, oracle.user_votes.counts)
    assert np.array_equal(detector.vote_table.merchant_votes.counts, oracle.merchant_votes.counts)
    assert table.user_votes == oracle.user_votes
    assert table.merchant_votes == oracle.merchant_votes
    if config.track_appearances:
        assert detector.vote_table.user_appearances == oracle.user_appearances
        assert detector.vote_table.merchant_appearances == oracle.merchant_appearances

    window = detector.window()
    assert np.array_equal(window.rows, np.flatnonzero(window.alive))
    graph = window.graph
    live = [
        (int(i), int(graph.user_labels[graph.edge_users[r]]),
         int(graph.merchant_labels[graph.edge_merchants[r]]))
        for i, r in zip(window.edge_ids[window.rows], window.rows)
    ]
    assert live == model.live
    assert window.watermark == model.watermark

    if fresh:  # a stale member keeps votes a cold fit would not give it
        rebuilt = LiveWindow(
            graph=graph, alive=window.alive, edge_ids=window.edge_ids, watermark=window.watermark
        )
        cold = EnsemFDet(config).fit_window(rebuilt).vote_table
        assert cold.user_votes == detector.vote_table.user_votes
        assert cold.merchant_votes == detector.vote_table.merchant_votes
        if config.track_appearances:
            assert cold.user_appearances == detector.vote_table.user_appearances
            assert cold.merchant_appearances == detector.vote_table.merchant_appearances


def start(window: WindowConfig, **config_kwargs):
    graph = uniform_bipartite(N_USERS, N_MERCHANTS, 24, rng=5)
    detector = IncrementalEnsemFDet(make_config(**config_kwargs), window=window)
    detector.fit(graph, timestamp=0.0)
    return detector, DetectionService(detector), ReplayModel(graph, window)


def ingest(service, model, users, merchants, removals, timestamp):
    version = service.snapshot.version
    kwargs = {"timestamp": timestamp}
    if removals:
        kwargs["remove_users"] = [u for u, _ in removals]
        kwargs["remove_merchants"] = [m for _, m in removals]
    if users or not removals:
        kwargs["users"], kwargs["merchants"] = users, merchants
    service.ingest(**kwargs)
    model.apply(users, merchants, removals, timestamp)
    assert service.snapshot.version == version + 1


WINDOWS = [
    WindowConfig(max_batches=3),
    WindowConfig(horizon=2.5),
    WindowConfig(max_batches=4, horizon=3.0),
    WindowConfig(),
]


@given(
    data=st.data(),
    window=st.sampled_from(WINDOWS),
    n_samples=st.sampled_from([1, 3, 5]),
    track_appearances=st.booleans(),
)
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_streams_match_cold_fits(data, window, n_samples, track_appearances):
    detector, service, model = start(
        window, n_samples=n_samples, track_appearances=track_appearances
    )
    labels = st.tuples(
        st.one_of(st.integers(0, N_USERS + 6), st.sampled_from(EDGE_LABELS)),
        st.one_of(st.integers(0, N_MERCHANTS + 4), st.sampled_from(EDGE_LABELS)),
    )
    try:
        timestamp = 0.0
        for _ in range(data.draw(st.integers(1, 7), label="steps")):
            pairs = data.draw(st.lists(labels, max_size=8), label="appends")
            if pairs and data.draw(st.booleans(), label="repeat a pair"):
                pairs += pairs[:2]
            removals = []
            if model.live:
                picks = data.draw(
                    st.lists(st.integers(0, len(model.live) - 1), max_size=3, unique=True),
                    label="deletions",
                )
                # picks name distinct live copies, so a pair may be listed twice
                removals = [model.live[k][1:] for k in picks]
            timestamp += data.draw(st.sampled_from([0.0, 0.5, 1.0, 3.0]), label="gap")
            users = [u for u, _ in pairs]
            merchants = [m for _, m in pairs]
            ingest(service, model, users, merchants, removals, timestamp)
            check_step(detector, service, model)
    finally:
        service.close(save=False)


def test_step_that_empties_the_window():
    detector, service, model = start(WindowConfig(max_batches=2))
    try:
        ingest(service, model, [1, 2, 2], [3, 4, 4], [], 1.0)
        ingest(service, model, [7], [5], [], 2.0)
        check_step(detector, service, model)
        ingest(service, model, [], [], [(1, 3), (2, 4), (2, 4), (7, 5)], 3.0)
        assert detector.window().n_live == 0
        check_step(detector, service, model)
        ingest(service, model, [5], [6], [], 4.0)
        check_step(detector, service, model)
    finally:
        service.close(save=False)


def test_window_with_no_bound_compacts_and_keeps_its_ids():
    detector, service, model = start(WindowConfig())
    try:
        ingest(service, model, [1, 2, 3], [4, 5, 6], [], 1.0)
        check_step(detector, service, model)
        # past half the rows dead, the window compacts; ids stay as appended
        removals = [edge[1:] for edge in model.live[:15]]
        ingest(service, model, [], [], removals, 1.0)
        window = detector.window()
        assert window.graph.n_edges == window.n_live == 12
        check_step(detector, service, model)
        ingest(service, model, [7, 1], [8, 4], [(1, 4)], 5.0)
        check_step(detector, service, model)
    finally:
        service.close(save=False)


def test_one_member_ensemble():
    detector, service, model = start(WindowConfig(max_batches=2), n_samples=1)
    try:
        for step in range(1, 5):
            # retract a pair of the previous batch, which stays in the window
            removals = [(step, 2)] if step > 1 else []
            ingest(service, model, [step, step + 1, 20], [step % 8, 2, 11], removals, float(step))
            check_step(detector, service, model)
    finally:
        service.close(save=False)


def test_failed_refresh_keeps_the_stale_members_votes():
    detector, service, model = start(WindowConfig(max_batches=3), n_samples=5)
    try:
        ingest(service, model, [1, 2, 3], [4, 5, 6], [], 1.0)
        before = [(s.detected_user_indices, s.detected_merchant_indices) for s in detector._samples]
        # the first refreshed member fails every attempt and goes stale
        arm("raise:point=member.detect,index=0,attempt=-1,times=-1")
        ingest(service, model, [7, 8, 9, 10], [1, 2, 3, 4], [], 2.0)
        disarm()
        (stale,) = detector.stale_members
        kept = detector._samples[stale]
        assert np.array_equal(kept.detected_user_indices, before[stale][0])
        assert np.array_equal(kept.detected_merchant_indices, before[stale][1])
        check_step(detector, service, model, fresh=False)
        # a later delta in the stale member's stripes refreshes it
        for step in range(3, 9):
            ingest(service, model, [step, step + 5], [step % 8, 7], [], float(step))
            if not detector.stale_members:
                break
            check_step(detector, service, model, fresh=False)
        assert detector.stale_members == ()
        check_step(detector, service, model)
    finally:
        service.close(save=False)


def test_compaction_deferred_by_a_fault():
    window = WindowConfig(max_batches=1)
    detector, service, model = start(window)
    try:
        arm("raise:point=window.compact,times=-1")
        for step in range(1, 4):
            removals = [(step - 1, step - 1)] if step > 1 else []
            ingest(service, model, [step, 9], [step, 7], removals, float(step))
            check_step(detector, service, model)
        assert detector.window().graph.n_edges > detector.window().n_live
        disarm()
        ingest(service, model, [4], [4], [], 4.0)
        assert detector.window().graph.n_edges == detector.window().n_live
        check_step(detector, service, model)
    finally:
        service.close(save=False)


def test_labels_at_the_integer_edges():
    detector, service, model = start(WindowConfig(max_batches=3))
    top, low = EDGE_LABELS[-1], EDGE_LABELS[2]
    try:
        ingest(service, model, list(EDGE_LABELS), list(reversed(EDGE_LABELS)), [], 1.0)
        check_step(detector, service, model)
        # the extremes again, beside the graph's own labels, and one retracted
        ingest(service, model, [top, low, 3, top], [low, 2, top, top], [(2**31, low)], 2.0)
        check_step(detector, service, model)
        assert {top, low} <= set(detector.window().graph.user_labels.tolist())
        ingest(service, model, [1], [low], [(low, 2)], 3.0)
        check_step(detector, service, model)
    finally:
        service.close(save=False)


@pytest.mark.parametrize("min_quorum", [0.5, 1.0], ids=["quorum-error", "first-failure"])
def test_update_whose_every_refresh_fails(min_quorum):
    """Every member's refresh fails: nothing is merged, and a clean update heals it.

    Under ``min_quorum`` 0.5 the update ends in a :class:`QuorumError`;
    under 1.0 the first failure is raised as it is. Either way the window
    keeps the delta and every member is stale, the snapshot stays as it
    was, and no vote moves. The next clean update, whose delta reaches
    every member's stripes, refreshes them all.
    """
    n_samples = 5
    detector, service, model = start(
        WindowConfig(max_batches=3), n_samples=n_samples, min_quorum=min_quorum
    )
    # 30 edges, ten stripes: every member samples some of them
    wide = ([u % (N_USERS + 4) for u in range(30)], [(3 * m) % N_MERCHANTS for m in range(30)])
    try:
        ingest(service, model, [1, 2, 3], [4, 5, 6], [], 1.0)
        check_step(detector, service, model)
        snapshot, table = service.snapshot, detector.vote_table
        arm("raise:point=member.detect,attempt=-1,times=-1")
        expected = QuorumError if min_quorum < 1.0 else InjectedFault
        with pytest.raises(expected):
            service.ingest(users=wide[0], merchants=wide[1], timestamp=2.0)
        disarm()
        model.apply(*wide, [], 2.0)
        assert detector.stale_members == tuple(range(n_samples))
        assert service.snapshot is snapshot
        assert detector.vote_table.user_votes == table.user_votes
        assert detector.vote_table.merchant_votes == table.merchant_votes
        check_step(detector, service, model, fresh=False)

        ingest(service, model, *wide, [], 3.0)
        assert detector.stale_members == ()
        check_step(detector, service, model)
    finally:
        service.close(save=False)
