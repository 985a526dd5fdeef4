"""DetectionService: single-writer serialisation, snapshot isolation, parity.

The acceptance bar for the serving layer: a reader must *never* observe a
vote table that differs from both the pre-update and the post-update fit —
each observed snapshot bit-compares against a cold
:meth:`EnsemFDet.fit_window` of the same accumulated graph — and that must
hold while an armed ``member.detect`` fault forces retries mid-update.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.datasets import uniform_bipartite
from repro.ensemble import EnsemFDet, EnsemFDetConfig, IncrementalEnsemFDet
from repro.errors import DetectionError, InjectedFault
from repro.faults import arm, disarm
from repro.fdet import FdetConfig
from repro.graph import GraphAccumulator, WindowConfig
from repro.sampling import StableEdgeSampler
from repro.serve import DetectionService, ScoreSnapshot


@pytest.fixture(autouse=True)
def _clean_faults():
    disarm()
    yield
    disarm()


def make_config(**overrides):
    defaults = dict(
        sampler=StableEdgeSampler(0.3, stripe=64),
        n_samples=8,
        fdet=FdetConfig(max_blocks=8),
        executor="serial",
        seed=23,
    )
    defaults.update(overrides)
    return EnsemFDetConfig(**defaults)


WINDOW = WindowConfig(max_batches=4)


def _batches(n: int, size: int = 25, seed: int = 41):
    rng = np.random.default_rng(seed)
    return [
        (rng.integers(0, 150, size), rng.integers(0, 70, size)) for _ in range(n)
    ]


def _fresh_service(**service_kwargs) -> tuple[DetectionService, "np.ndarray"]:
    graph = uniform_bipartite(150, 70, 1400, rng=3)
    detector = IncrementalEnsemFDet(make_config(), window=WINDOW)
    detector.fit(graph, timestamp=0.0)
    return DetectionService(detector, **service_kwargs), graph


def _cold_fingerprints(graph, batches) -> list[tuple]:
    """Expected vote fingerprint after each prefix of ``batches``, cold-fit.

    ``expected[k]`` is the fingerprint of a cold :meth:`EnsemFDet.fit_window`
    on batch 0 plus the first ``k`` update batches — snapshot version
    ``k + 1`` in service terms.
    """
    fingerprints = []
    accumulator = GraphAccumulator.from_graph(graph, window=WINDOW, timestamp=0.0)
    for k in range(len(batches) + 1):
        if k:
            users, merchants = batches[k - 1]
            accumulator.append(users, merchants, timestamp=float(k))
            accumulator.expire()  # the detector's update path expires per batch
        cold = EnsemFDet(make_config()).fit_window(
            accumulator.window(), track_members=True
        )
        fingerprints.append(
            (
                tuple(sorted((int(k), int(v)) for k, v in cold.vote_table.user_votes.items())),
                tuple(sorted((int(k), int(v)) for k, v in cold.vote_table.merchant_votes.items())),
            )
        )
    return fingerprints


class TestLifecycle:
    def test_requires_fitted_detector(self):
        with pytest.raises(DetectionError, match="fitted"):
            DetectionService(IncrementalEnsemFDet(make_config()))

    def test_boot_snapshot_is_version_one(self):
        service, _ = _fresh_service()
        assert service.snapshot.version == 1
        assert service.windowed
        service.close(save=False)

    def test_close_is_idempotent_and_blocks_new_work(self):
        service, _ = _fresh_service()
        service.close(save=False)
        service.close(save=False)
        with pytest.raises(DetectionError, match="closed"):
            service.submit_ingest([1], [2])

    def test_close_saves_state(self, tmp_path):
        state = tmp_path / "state.npz"
        service, _ = _fresh_service(state_path=state)
        service.close(save=True)
        detector, recovered = IncrementalEnsemFDet.load_with_recovery(state)
        assert recovered is None
        assert detector.graph.n_edges == service.snapshot.n_edges


class TestIngestValidation:
    def test_users_without_merchants_rejected(self):
        service, _ = _fresh_service()
        try:
            with pytest.raises(DetectionError, match="together"):
                service.ingest([1, 2], None)
        finally:
            service.close(save=False)

    def test_length_mismatch_rejected(self):
        service, _ = _fresh_service()
        try:
            with pytest.raises(DetectionError, match="mismatch"):
                service.ingest([1, 2], [3])
        finally:
            service.close(save=False)

    def test_empty_delta_rejected(self):
        service, _ = _fresh_service()
        try:
            with pytest.raises(DetectionError, match="nothing to apply"):
                service.ingest()
        finally:
            service.close(save=False)

    def test_deletions_on_append_only_state_rejected(self):
        graph = uniform_bipartite(60, 30, 400, rng=1)
        detector = IncrementalEnsemFDet(make_config())
        detector.fit(graph)
        service = DetectionService(detector)
        try:
            with pytest.raises(DetectionError, match="windowed"):
                service.ingest(
                    [1], [2], remove_users=[0], remove_merchants=[0]
                )
            with pytest.raises(DetectionError, match="windowed"):
                service.ingest([1], [2], timestamp=5.0)
        finally:
            service.close(save=False)

    def test_rejected_delta_occupies_no_writer_slot(self):
        service, _ = _fresh_service()
        try:
            before = service.stats()
            with pytest.raises(DetectionError):
                service.ingest([1, 2], [3])
            after = service.stats()
            assert after.updates_failed == before.updates_failed == 0
            assert after.updates_applied == before.updates_applied
        finally:
            service.close(save=False)


class TestIngestParity:
    def test_each_version_bit_identical_to_cold_window_fit(self):
        service, graph = _fresh_service()
        batches = _batches(4)
        expected = _cold_fingerprints(graph, batches)
        try:
            assert service.snapshot.vote_fingerprint() == expected[0]
            for k, (users, merchants) in enumerate(batches, start=1):
                report = service.ingest(users, merchants, timestamp=float(k))
                assert report["snapshot_version"] == k + 1
                assert service.snapshot.vote_fingerprint() == expected[k]
        finally:
            service.close(save=False)

    def test_deletion_delta_round_trips(self):
        service, graph = _fresh_service()
        try:
            report = service.ingest(
                remove_users=graph.edge_users[:3],
                remove_merchants=graph.edge_merchants[:3],
                timestamp=1.0,
            )
            assert report["n_removed_edges"] == 3
            assert report["n_new_edges"] == 0
            assert service.snapshot.version == 2
        finally:
            service.close(save=False)

    def test_failed_update_keeps_previous_snapshot(self):
        from repro.errors import QuorumError
        from repro.parallel import FaultTolerance

        graph = uniform_bipartite(150, 70, 1400, rng=3)
        # quorum just below 1.0: any member going stale fails the update
        # with QuorumError (at exactly 1.0 the raw failure re-raises instead)
        detector = IncrementalEnsemFDet(
            make_config(tolerance=FaultTolerance(max_retries=1, min_quorum=0.99)),
            window=WINDOW,
        )
        detector.fit(graph, timestamp=0.0)
        service = DetectionService(detector)
        try:
            before = service.snapshot
            arm("raise:point=member.detect,attempt=-1,times=-1")  # every retry fails
            users, merchants = _batches(1)[0]
            with pytest.raises(QuorumError):
                service.ingest(users, merchants, timestamp=1.0)
            disarm()
            assert service.snapshot is before
            assert service.stats().updates_failed == 1
            # the service recovers: the next delta applies normally
            report = service.ingest(users, merchants, timestamp=1.0)
            assert report["snapshot_version"] == 2
        finally:
            service.close(save=False)


class TestSnapshotIsolation:
    """A hammering reader never sees a half-merged vote table."""

    def _hammer(self, service, batches, expected, arm_plan=None):
        observed: dict[int, set] = {}
        errors: list[BaseException] = []
        done = threading.Event()

        def reader():
            try:
                # one last read after ``done``: ingest() returns only once the
                # writer has published, so that read sees the final snapshot
                while True:
                    finished = done.is_set()
                    snapshot = service.snapshot
                    observed.setdefault(snapshot.version, set()).add(
                        snapshot.vote_fingerprint()
                    )
                    if finished:
                        break
            except BaseException as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            if arm_plan:
                arm(arm_plan)
            for k, (users, merchants) in enumerate(batches, start=1):
                service.ingest(users, merchants, timestamp=float(k))
        finally:
            done.set()
            for thread in threads:
                thread.join(timeout=30)
            disarm()
        assert not errors
        # every observed (version, fingerprint) bit-compares against the
        # cold fit of exactly that prefix — nothing in between ever leaks
        assert set(observed) <= set(range(1, len(batches) + 2))
        for version, fingerprints in observed.items():
            assert fingerprints == {expected[version - 1]}, (
                f"version {version} showed a vote table differing from the "
                "cold fit of its prefix"
            )
        # the hammer must actually have seen both pre- and post-update state
        assert 1 in observed and len(batches) + 1 in observed

    def test_reader_only_sees_cold_fit_states(self):
        service, graph = _fresh_service()
        batches = _batches(5)
        expected = _cold_fingerprints(graph, batches)
        try:
            self._hammer(service, batches, expected)
        finally:
            service.close(save=False)

    def test_isolation_holds_under_member_detect_retries(self):
        service, graph = _fresh_service()
        batches = _batches(5)
        expected = _cold_fingerprints(graph, batches)
        try:
            # every member's first attempt fails and recovers on retry,
            # stretching the mid-update danger window the readers probe
            self._hammer(
                service,
                batches,
                expected,
                arm_plan="raise:point=member.detect,times=-1",
            )
            assert service.stats().updates_applied == len(batches)
        finally:
            service.close(save=False)


class TestStatsAndHealth:
    def test_counters_accumulate(self):
        service, graph = _fresh_service()
        try:
            batches = _batches(2)
            for k, (users, merchants) in enumerate(batches, start=1):
                service.ingest(users, merchants, timestamp=float(k))
            stats = service.stats()
            assert stats.updates_applied == 2
            assert stats.edges_ingested > 0
            assert stats.pending_jobs == 0
            assert stats.uptime_seconds >= 0
            assert service.health()["status"] == "ok"
        finally:
            service.close(save=False)

    def test_save_state_counter_and_fault_surface(self, tmp_path):
        state = tmp_path / "state.npz"
        service, _ = _fresh_service(state_path=state)
        try:
            report = service.save_state()
            assert report["path"] == str(state)
            assert service.stats().snapshots_saved == 1
            arm("raise:point=state.write,stage=tmp_written")
            with pytest.raises(InjectedFault):
                service.save_state()
            disarm()
            # the armed crash never tore the on-disk snapshot
            detector, recovered = IncrementalEnsemFDet.load_with_recovery(state)
            assert recovered is None
            assert detector.graph.n_edges == service.snapshot.n_edges
        finally:
            service.close(save=False)
