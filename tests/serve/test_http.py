"""HTTP front end: endpoint contracts, error mapping, and wire parity.

The acceptance bar lives in :class:`TestHttpParity`: the ``/score`` and
``/top`` responses of a live server must be **bit-identical** to a cold
:meth:`EnsemFDet.fit_window` on the same accumulated graph, after every
single ingest over the wire.
"""

from __future__ import annotations

import http.client
import json
import logging
import socket
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.datasets import uniform_bipartite
from repro.ensemble import EnsemFDet, EnsemFDetConfig, IncrementalEnsemFDet
from repro.faults import arm, disarm
from repro.fdet import FdetConfig
from repro.graph import GraphAccumulator, WindowConfig
from repro.sampling import StableEdgeSampler
from repro.serve import DetectionService, start_server_in_thread
from repro.serve.http import MAX_BODY_BYTES, MAX_HEADER_BYTES


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


def request(url: str, method: str = "GET", payload: dict | None = None):
    """One HTTP exchange; returns ``(status, decoded JSON body)``."""
    data = json.dumps(payload).encode("utf-8") if payload is not None else None
    req = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=60) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8"))


def _boot(graph=None, **service_kwargs):
    if graph is None:
        graph = uniform_bipartite(150, 70, 1400, rng=3)
    detector = IncrementalEnsemFDet(make_config(), window=WINDOW)
    detector.fit(graph, timestamp=0.0)
    service = DetectionService(detector, **service_kwargs)
    return start_server_in_thread(service), graph


@pytest.fixture(scope="class")
def served():
    """One read-only server shared by a whole test class (never ingests)."""
    handle, graph = _boot()
    yield handle, graph
    handle.stop()


class TestReadEndpoints:
    def test_health(self, served):
        handle, _ = served
        status, body = request(f"{handle.url}/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["fitted"] is True
        assert body["windowed"] is True
        assert body["snapshot_version"] == 1
        assert body["stale_members"] == []

    def test_stats(self, served):
        handle, graph = served
        status, body = request(f"{handle.url}/stats")
        assert status == 200
        assert body["n_users"] == graph.n_users
        assert body["n_edges"] == graph.n_edges
        assert body["updates_applied"] == 0
        assert body["n_samples"] == 8
        assert body["default_threshold"] == 2
        assert body["watermark"] == handle.server.service._detector.window().watermark

    def test_score_known_and_unknown(self, served):
        handle, _ = served
        snapshot = handle.server.service.snapshot
        label, score = next(iter(snapshot.user_votes.items()))
        status, body = request(f"{handle.url}/score/{label}")
        assert status == 200
        assert body["user"] == label
        assert body["score"] == score
        assert body["known"] is True
        assert body["flagged"] == (score >= snapshot.default_threshold)
        status, body = request(f"{handle.url}/score/999999999")
        assert status == 200
        assert body["score"] == 0.0
        assert body["known"] is False

    def test_top_is_sorted_and_clamped(self, served):
        handle, graph = served
        status, body = request(f"{handle.url}/top?k=10")
        assert status == 200
        assert body["k"] == 10
        scores = [entry["score"] for entry in body["users"]]
        assert scores == sorted(scores, reverse=True)
        status, body = request(f"{handle.url}/top?k={graph.n_users + 500}")
        assert body["k"] == graph.n_users
        status, body = request(f"{handle.url}/top?k=0")
        assert body["users"] == []

    def test_blocks_matches_detector(self, served):
        handle, _ = served
        service = handle.server.service
        status, body = request(f"{handle.url}/blocks?threshold=3")
        assert status == 200
        reference = service._detector.detect(3)
        assert body["users"] == reference.user_labels.tolist()
        assert body["merchants"] == reference.merchant_labels.tolist()
        assert body["n_users"] == len(body["users"])

    def test_blocks_defaults_to_service_threshold(self, served):
        handle, _ = served
        _, body = request(f"{handle.url}/blocks")
        assert body["threshold"] == handle.server.service.default_threshold

    def test_trailing_slash_is_tolerated(self, served):
        handle, _ = served
        status, _ = request(f"{handle.url}/health/")
        assert status == 200


class TestErrorMapping:
    def test_unknown_path_is_404(self, served):
        handle, _ = served
        status, body = request(f"{handle.url}/nope")
        assert status == 404
        assert "no route" in body["error"]

    def test_wrong_method_is_405(self, served):
        handle, _ = served
        assert request(f"{handle.url}/ingest")[0] == 405
        assert request(f"{handle.url}/top", method="POST", payload={})[0] == 405
        assert request(f"{handle.url}/health", method="POST", payload={})[0] == 405

    def test_non_integer_label_is_400(self, served):
        handle, _ = served
        status, body = request(f"{handle.url}/score/bob")
        assert status == 400
        assert "integer" in body["error"]

    def test_non_integer_k_is_400(self, served):
        handle, _ = served
        status, body = request(f"{handle.url}/top?k=many")
        assert status == 400
        assert "'k'" in body["error"]

    def test_zero_threshold_is_400(self, served):
        handle, _ = served
        status, body = request(f"{handle.url}/blocks?threshold=0")
        assert status == 400
        assert body["type"] == "DetectionError"

    def test_invalid_json_body_is_400(self, served):
        handle, _ = served
        req = urllib.request.Request(
            f"{handle.url}/ingest", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req, timeout=60)
        assert excinfo.value.code == 400

    def test_unknown_ingest_field_is_400(self, served):
        handle, _ = served
        status, body = request(
            f"{handle.url}/ingest", method="POST", payload={"edges": [[1, 2]]}
        )
        assert status == 400
        assert "edges" in body["error"]

    def test_unpaired_columns_are_400(self, served):
        handle, _ = served
        status, body = request(
            f"{handle.url}/ingest", method="POST", payload={"users": [1, 2]}
        )
        assert status == 400
        assert body["type"] == "DetectionError"
        # the rejected delta never reached the writer
        assert request(f"{handle.url}/stats")[1]["updates_failed"] == 0

    def test_length_mismatch_is_400(self, served):
        handle, _ = served
        status, body = request(
            f"{handle.url}/ingest",
            method="POST",
            payload={"users": [1, 2], "merchants": [3]},
        )
        assert status == 400
        assert "mismatch" in body["error"]

    def test_deletions_apply_over_http_without_a_window_bound(self):
        graph = uniform_bipartite(60, 30, 400, rng=1)
        detector = IncrementalEnsemFDet(make_config())
        detector.fit(graph)
        handle = start_server_in_thread(DetectionService(detector))
        try:
            status, body = request(
                f"{handle.url}/ingest",
                method="POST",
                payload={
                    "users": [1],
                    "merchants": [2],
                    "remove_users": [int(graph.edge_users[0])],
                    "remove_merchants": [int(graph.edge_merchants[0])],
                    "timestamp": 3.5,
                },
            )
            assert status == 200
            assert (body["n_new_edges"], body["n_removed_edges"]) == (1, 1)
            stats = request(f"{handle.url}/stats")[1]
            assert stats["windowed"] is False
            assert stats["watermark"] == graph.n_edges + 1
            assert request(f"{handle.url}/health")[1]["windowed"] is False
            cold = EnsemFDet(make_config()).fit_window(detector.window())
            status, top = request(f"{handle.url}/top?k={graph.n_users + 1}")
            assert status == 200
            served = {e["user"]: e["score"] for e in top["users"] if e["score"]}
            assert served == dict(cold.vote_table.user_votes)
        finally:
            handle.stop()


class TestIngestValidation:
    """Deltas that a cast would corrupt are 400s that change nothing.

    On a horizon window a ``NaN`` timestamp would expire every live edge and
    then let any later timestamp through the non-decreasing check; a float
    label would be cast to another label, or to -2**63.
    """

    @pytest.fixture(scope="class")
    def horizon_served(self):
        detector = IncrementalEnsemFDet(make_config(), window=WindowConfig(horizon=10.0))
        detector.fit(uniform_bipartite(150, 70, 1400, rng=3), timestamp=0.0)
        handle = start_server_in_thread(DetectionService(detector))
        yield handle
        handle.stop()

    @pytest.mark.parametrize(
        "payload",
        [
            {"users": [1, 1.5], "merchants": [2, 3]},
            {"users": [1], "merchants": [float("nan")]},
            {"users": [float("inf")], "merchants": [2]},
            {"users": [1e30], "merchants": [2]},
            {"users": [2**64 - 1], "merchants": [2]},
            {"remove_users": [0.5], "remove_merchants": [0]},
            {"users": [1], "merchants": [2], "timestamp": float("nan")},
            {"users": [1], "merchants": [2], "timestamp": float("-inf")},
            {"remove_users": [999_999], "remove_merchants": [0]},
        ],
        ids=[
            "fraction",
            "nan-label",
            "inf-label",
            "huge-label",
            "uint64-label",
            "fractional-deletion",
            "nan-timestamp",
            "inf-timestamp",
            "unknown-deletion-label",
        ],
    )
    def test_rejected_ingest_changes_nothing(self, horizon_served, payload):
        handle = horizon_served
        snapshot = handle.server.service.snapshot
        _, top = request(f"{handle.url}/top?k={snapshot.user_labels.size}")
        status, body = request(f"{handle.url}/ingest", method="POST", payload=payload)
        assert status == 400
        assert body["type"] == "DetectionError"
        assert handle.server.service.snapshot is snapshot
        assert request(f"{handle.url}/health")[1]["snapshot_version"] == snapshot.version
        assert request(f"{handle.url}/top?k={snapshot.user_labels.size}")[1] == top
        assert request(f"{handle.url}/stats")[1]["updates_failed"] == 0

    @pytest.mark.parametrize(
        "payload",
        [
            {"users": [7], "merchants": [8], "timestamp": 2.0},
            {"users": [7], "merchants": [8], "remove_users": [0], "timestamp": 2.0},
            {"remove_users": [0], "timestamp": 2.0},
            {"users": [7], "merchants": [8], "timestamp": [1]},
            {"users": [7], "merchants": [8], "timestamp": {}},
            {"users": [7], "merchants": [8], "timestamp": "2.5"},
            {"users": [7], "merchants": [8], "timestamp": True},
        ],
        ids=["backwards", "backwards-retract", "backwards-retract-only", "list", "object",
             "string", "bool"],
    )
    def test_rejected_timestamp_leaves_the_window_whole(self, payload):
        """A timestamp before the newest batch's, or not a JSON number, is a
        400 that changes nothing, and the next in-order ingest still matches
        a cold window fit."""
        graph = uniform_bipartite(150, 70, 1400, rng=3)
        window = WindowConfig(horizon=10.0)
        detector = IncrementalEnsemFDet(make_config(), window=window)
        detector.fit(graph, timestamp=0.0)
        handle = start_server_in_thread(DetectionService(detector))
        accumulator = GraphAccumulator.from_graph(graph, window=window, timestamp=0.0)
        try:
            ingest = {"users": [1, 2], "merchants": [3, 4], "timestamp": 5.0}
            assert request(f"{handle.url}/ingest", method="POST", payload=ingest)[0] == 200
            accumulator.append([1, 2], [3, 4], timestamp=5.0)
            version = handle.server.service.snapshot.version
            live = detector.window().n_live

            if "remove_users" in payload:
                # the oldest background edge: a deletion that would succeed
                payload = dict(
                    payload,
                    remove_users=graph.edge_users[:1].tolist(),
                    remove_merchants=graph.edge_merchants[:1].tolist(),
                )
            status, body = request(f"{handle.url}/ingest", method="POST", payload=payload)
            assert (status, body["type"]) == (400, "DetectionError")
            assert request(f"{handle.url}/health")[1]["snapshot_version"] == version
            assert detector.window().n_live == live

            ingest = {"users": [5, 6], "merchants": [7, 8], "timestamp": 6.0}
            status, report = request(f"{handle.url}/ingest", method="POST", payload=ingest)
            assert (status, report["snapshot_version"]) == (200, version + 1)
            accumulator.append([5, 6], [7, 8], timestamp=6.0)
            accumulator.expire()
            cold = EnsemFDet(make_config()).fit_window(accumulator.window()).vote_table
            labels = handle.server.service.snapshot.user_labels
            scores = np.array([cold.user_votes.get(int(u), 0) for u in labels], dtype=np.float64)
            order = np.lexsort((np.arange(labels.size), -scores))
            expected = [{"user": int(labels[i]), "score": float(scores[i])} for i in order]
            assert request(f"{handle.url}/top?k={labels.size}")[1]["users"] == expected
        finally:
            handle.stop()

    def test_whole_float_labels_are_accepted(self, horizon_served):
        handle = horizon_served
        version = handle.server.service.snapshot.version
        status, report = request(
            f"{handle.url}/ingest",
            method="POST",
            payload={"users": [1.0, 2.0], "merchants": [3.0, 4.0], "timestamp": 1.0},
        )
        assert status == 200
        assert report["snapshot_version"] == version + 1


class TestKeepAlive:
    def test_many_requests_share_one_connection(self, served):
        handle, _ = served
        connection = http.client.HTTPConnection(handle.host, handle.port, timeout=60)
        try:
            versions = set()
            for _ in range(5):
                connection.request("GET", "/health")
                response = connection.getresponse()
                assert response.status == 200
                versions.add(json.loads(response.read())["snapshot_version"])
            assert versions == {1}
        finally:
            connection.close()

    def test_connection_close_is_honoured(self, served):
        handle, _ = served
        connection = http.client.HTTPConnection(handle.host, handle.port, timeout=60)
        try:
            connection.request("GET", "/health", headers={"Connection": "close"})
            response = connection.getresponse()
            assert response.status == 200
            assert response.getheader("Connection") == "close"
        finally:
            connection.close()


def raw_exchange(handle, data: bytes) -> bytes:
    """Send raw bytes on a fresh connection; everything read until the server closes it."""
    with socket.create_connection((handle.host, handle.port), timeout=60) as sock:
        sock.sendall(data)
        chunks = []
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:  # closed with part of the request unread
                break
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


class TestRequestFraming:
    """A request the server cannot frame is answered, then its connection closed."""

    @pytest.mark.parametrize(
        "data, status, needle",
        [
            (
                b"GET /health HTTP/1.1\r\nX-Pad: " + b"a" * (MAX_HEADER_BYTES + 10) + b"\r\n\r\n",
                413,
                "head too large",
            ),
            (
                b"POST /ingest HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1),
                413,
                "exceeds the limit",
            ),
            (b"HELLO\r\n\r\n", 400, "malformed request line"),
            (b"POST /ingest HTTP/1.1\r\nContent-Length: ten\r\n\r\n", 400, "Content-Length"),
            (b"POST /ingest HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400, "Content-Length"),
        ],
        ids=["oversized-head", "oversized-body", "malformed-line", "non-numeric-length",
             "negative-length"],
    )
    def test_answered_then_closed(self, served, caplog, data, status, needle):
        handle, _ = served
        with caplog.at_level(logging.ERROR):
            reply = raw_exchange(handle, data)
            # the server keeps serving other connections
            assert request(f"{handle.url}/health")[0] == 200
        head, _, body = reply.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        assert lines[0].startswith(f"HTTP/1.1 {status} ")
        assert "Connection: close" in lines[1:]
        assert needle in json.loads(body)["error"]
        assert not [r for r in caplog.records if r.name == "asyncio"]


class TestHttpParity:
    """The acceptance criterion, over the wire.

    After each ``POST /ingest``, ``/score`` and ``/top`` answers must be
    bit-identical to a cold :meth:`EnsemFDet.fit_window` of the same
    accumulated (and expired) graph.
    """

    def _cold_votes(self, accumulator):
        cold = EnsemFDet(make_config()).fit_window(accumulator.window())
        return {int(k): int(v) for k, v in cold.vote_table.user_votes.items()}

    def _expected_top(self, accumulator, user_labels):
        """All users as ``(label, votes)`` ranked by (-score, node index)."""
        votes = self._cold_votes(accumulator)
        scores = np.array([votes.get(int(u), 0) for u in user_labels], dtype=np.float64)
        order = np.lexsort((np.arange(user_labels.size), -scores))
        return [
            {"user": int(user_labels[i]), "score": float(scores[i])} for i in order
        ]

    def test_score_and_top_bit_identical_to_cold_window_fit(self):
        handle, graph = _boot()
        rng = np.random.default_rng(41)
        accumulator = GraphAccumulator.from_graph(graph, window=WINDOW, timestamp=0.0)
        try:
            for k in range(1, 5):
                users = rng.integers(0, 150, 25)
                merchants = rng.integers(0, 70, 25)
                status, report = request(
                    f"{handle.url}/ingest",
                    method="POST",
                    payload={
                        "users": users.tolist(),
                        "merchants": merchants.tolist(),
                        "timestamp": float(k),
                    },
                )
                assert status == 200
                assert report["snapshot_version"] == k + 1
                accumulator.append(users, merchants, timestamp=float(k))
                accumulator.expire()  # the detector's update path expires per batch

                labels = handle.server.service.snapshot.user_labels
                expected = self._expected_top(accumulator, labels)
                votes = {entry["user"]: entry["score"] for entry in expected}

                status, body = request(f"{handle.url}/top?k={labels.size}")
                assert status == 200
                assert body["users"] == expected
                assert body["snapshot_version"] == k + 1

                probes = [int(labels[0]), int(labels[-1]), 999999999] + [
                    entry["user"] for entry in expected[:5]
                ]
                for label in probes:
                    _, scored = request(f"{handle.url}/score/{label}")
                    assert scored["score"] == votes.get(label, 0.0)
        finally:
            handle.stop()

    def test_deletion_delta_over_http(self):
        handle, graph = _boot()
        try:
            status, report = request(
                f"{handle.url}/ingest",
                method="POST",
                payload={
                    "remove_users": graph.edge_users[:3].tolist(),
                    "remove_merchants": graph.edge_merchants[:3].tolist(),
                    "timestamp": 1.0,
                },
            )
            assert status == 200
            assert report["n_removed_edges"] == 3
            assert request(f"{handle.url}/stats")[1]["edges_retracted"] == 3
        finally:
            handle.stop()


class TestHttpChaos:
    def test_snapshot_fault_is_500_and_reads_keep_serving(self, tmp_path):
        state = tmp_path / "state.npz"
        handle, _ = _boot(state_path=state)
        try:
            status, body = request(f"{handle.url}/snapshot", method="POST", payload={})
            assert status == 200
            assert body["path"] == str(state)

            arm("raise:point=state.write,stage=tmp_written")
            status, body = request(f"{handle.url}/snapshot", method="POST", payload={})
            assert status == 500
            assert body["type"] == "InjectedFault"

            # the failed persist never disturbed the serving snapshot
            status, body = request(f"{handle.url}/top?k=5")
            assert status == 200
            assert body["snapshot_version"] == 1

            disarm()
            status, _ = request(f"{handle.url}/snapshot", method="POST", payload={})
            assert status == 200
            detector, recovered = IncrementalEnsemFDet.load_with_recovery(state)
            assert recovered is None
            assert detector.graph.n_edges == handle.server.service.snapshot.n_edges
        finally:
            handle.stop()

    def test_member_detect_fault_past_budget_is_500(self):
        from repro.parallel import FaultTolerance

        graph = uniform_bipartite(150, 70, 1400, rng=3)
        detector = IncrementalEnsemFDet(
            make_config(tolerance=FaultTolerance(max_retries=1, min_quorum=0.99)),
            window=WINDOW,
        )
        detector.fit(graph, timestamp=0.0)
        handle = start_server_in_thread(DetectionService(detector))
        try:
            arm("raise:point=member.detect,attempt=-1,times=-1")
            status, body = request(
                f"{handle.url}/ingest",
                method="POST",
                payload={"users": [1, 2], "merchants": [3, 4], "timestamp": 1.0},
            )
            assert status == 500
            assert body["type"] == "QuorumError"
            disarm()
            # the pre-failure snapshot keeps serving, and the service recovers
            assert request(f"{handle.url}/top?k=1")[1]["snapshot_version"] == 1
            status, report = request(
                f"{handle.url}/ingest",
                method="POST",
                payload={"users": [1, 2], "merchants": [3, 4], "timestamp": 1.0},
            )
            assert status == 200
            assert report["snapshot_version"] == 2
        finally:
            handle.stop()
