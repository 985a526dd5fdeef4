"""Serve smoke: golden-grid scenario replay through the HTTP API.

This is the CI ``serve-smoke`` contract: boot a real server, stream a
golden-grid attack scenario through ``POST /ingest``, and require the
``/top`` ranking to reproduce the committed golden row's precision@20 —
then run one chaos round (an armed ``state.write`` fault over HTTP) and
prove reads keep serving. A final test drives the actual ``ensemfdet
serve`` CLI as a subprocess end to end.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.datasets import uniform_bipartite
from repro.ensemble import EnsemFDetConfig, IncrementalEnsemFDet
from repro.faults import arm, disarm
from repro.fdet import FdetConfig
from repro.graph import save_edge_list
from repro.metrics.curves import precision_at_k
from repro.sampling import StableEdgeSampler
from repro.scenarios import BatchKind, accumulate_batches, make_scenario
from repro.serve import DetectionService, start_server_in_thread

GOLDEN_PATH = (
    Path(__file__).parent.parent / "scenarios" / "golden" / "scenario_grid.json"
)

#: the golden grid's shared ensemble knobs (see tests/scenarios/test_golden_grid.py)
GOLDEN_SEED = 7
GOLDEN_SCALE = 0.15
GOLDEN_K = 20


@pytest.fixture(autouse=True)
def _clean_faults():
    disarm()
    yield
    disarm()


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


def golden_config() -> EnsemFDetConfig:
    return EnsemFDetConfig(
        sampler=StableEdgeSampler(0.4, stripe=32),
        n_samples=8,
        fdet=FdetConfig(max_blocks=8),
        executor="serial",
        seed=GOLDEN_SEED,
    )


def golden_row(scenario: str, detector: str = "incremental") -> dict:
    rows = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    for row in rows:
        if row["scenario"] == scenario and row["detector"] == detector:
            return row
    raise AssertionError(f"no golden row for {scenario}/{detector}")


def _serve_scenario(name: str):
    """Fit on the honest background and boot a server ready for replay."""
    instance = make_scenario(name).generate(
        intensity=1.0, scale=GOLDEN_SCALE, seed=GOLDEN_SEED
    )
    detector = IncrementalEnsemFDet(golden_config())
    detector.fit(accumulate_batches(instance.batches[:1]))
    handle = start_server_in_thread(DetectionService(detector))
    return handle, instance


@pytest.mark.parametrize("scenario", ["naive_block", "camouflage", "staged"])
def test_replayed_scenario_reproduces_golden_precision(scenario):
    handle, instance = _serve_scenario(scenario)
    try:
        replayed = 0
        for batch, kind in zip(instance.attack_batches, instance.batch_kinds[1:]):
            if kind == BatchKind.CLEANUP:
                continue  # append-only replay, as in the golden grid
            payload = {
                "users": batch.users.tolist(),
                "merchants": batch.merchants.tolist(),
            }
            if batch.weights is not None:
                payload["weights"] = batch.weights.tolist()
            status, report = request(
                f"{handle.url}/ingest", method="POST", payload=payload
            )
            assert status == 200
            assert report["n_new_edges"] == batch.n_edges
            replayed += 1

        status, body = request(f"{handle.url}/top?k={GOLDEN_K}")
        assert status == 200
        ranking = [entry["user"] for entry in body["users"]]
        precision = round(
            precision_at_k(ranking, instance.dataset.blacklist.labels, GOLDEN_K), 6
        )
        assert precision == golden_row(scenario)["precision_at_k"], (
            f"served /top ranking for {scenario} drifted from the golden grid"
        )

        _, stats = request(f"{handle.url}/stats")
        assert stats["updates_applied"] == replayed
        assert stats["updates_failed"] == 0
    finally:
        handle.stop()


def test_chaos_round_over_http(tmp_path):
    """One ``state.write`` fault through the HTTP path, mid-scenario."""
    handle, instance = _serve_scenario("naive_block")
    state = tmp_path / "state.npz"
    handle.server.service.state_path = state
    try:
        batch = instance.attack_batches[0]
        request(
            f"{handle.url}/ingest",
            method="POST",
            payload={
                "users": batch.users.tolist(),
                "merchants": batch.merchants.tolist(),
            },
        )
        arm("raise:point=state.write,stage=tmp_written")
        status, body = request(f"{handle.url}/snapshot", method="POST", payload={})
        assert status == 500
        assert body["type"] == "InjectedFault"
        # reads keep answering from the live snapshot throughout
        status, body = request(f"{handle.url}/top?k=5")
        assert status == 200
        assert body["snapshot_version"] == 2
        disarm()
        status, _ = request(f"{handle.url}/snapshot", method="POST", payload={})
        assert status == 200
        detector, recovered = IncrementalEnsemFDet.load_with_recovery(state)
        assert recovered is None
        assert detector.graph.n_edges == handle.server.service.snapshot.n_edges
    finally:
        handle.stop()


def _serve_until_sigterm(edges: Path, state: Path, probe=lambda url: None) -> tuple[int, str]:
    """Boot ``ensemfdet serve`` on ``edges`` as a subprocess, call
    ``probe(url)`` once it is ready, then SIGTERM it; returns its exit code
    and stderr."""
    src_dir = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src_dir), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    proc = subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro.cli",
            "serve", str(edges), "--state", str(state),
            "--ratio", "0.25", "--samples", "8", "--stripe", "128",
            "--executor", "serial", "--port", "0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        line = ""
        while "# serving on http://" not in line:
            line = proc.stdout.readline()
            assert line, "serve exited before becoming ready"
        probe(line.split("# serving on ", 1)[1].strip())
        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup on failure
            proc.kill()
            proc.communicate()
    return proc.returncode, err


class TestServeCli:
    """``ensemfdet serve`` as a real subprocess: boot, roundtrip, shutdown."""

    def test_serve_boot_roundtrip_sigterm(self, tmp_path):
        graph = uniform_bipartite(120, 60, 900, rng=0)
        edges = tmp_path / "stream.tsv"
        save_edge_list(graph, edges)
        state = tmp_path / "state.npz"

        def probe(url):
            with urllib.request.urlopen(f"{url}/health", timeout=60) as response:
                health = json.loads(response.read())
            assert health["status"] == "ok"
            status, body = request(f"{url}/top?k=5")
            assert status == 200
            assert len(body["users"]) == 5

        code, err = _serve_until_sigterm(edges, state, probe)
        assert code == 0, err
        assert "# shutdown: state committed" in err
        assert "Traceback" not in err
        assert state.exists()

    def test_cold_fit_leaves_a_torn_last_row_for_its_newline(self, tmp_path):
        """The cold fit reads the source through the same tail as ``watch``:
        a last row cut mid-write (``13<TAB>4`` of ``13<TAB>45``) is not an
        edge, and ``watch_rows`` counts only the complete rows (counting the
        torn one would make a ``watch`` that resumes the state skip the
        completed row)."""
        graph = uniform_bipartite(120, 60, 900, rng=0)
        edges = tmp_path / "stream.tsv"
        save_edge_list(graph, edges)
        complete = edges.read_text().splitlines()[1:]
        with edges.open("a") as fh:
            fh.write("13\t4")
        state = tmp_path / "state.npz"
        code, err = _serve_until_sigterm(edges, state)
        assert code == 0, err
        detector = IncrementalEnsemFDet.load(state)
        assert detector.meta["watch_rows"] == len(complete)
        live = detector.window().live_graph()
        assert live.n_edges == len(complete)
        last = (int(live.user_labels[live.edge_users[-1]]),
                int(live.merchant_labels[live.edge_merchants[-1]]))
        assert "\t".join(map(str, last)) == complete[-1]
