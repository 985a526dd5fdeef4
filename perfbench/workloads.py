"""Workload bodies: input preparation and one measured run per process.

::

    python3 perfbench/workloads.py prepare  --workload W --seed S --dir D
    python3 perfbench/workloads.py measure  --workload W --seed S --dir D --seconds T [--traced]
    python3 perfbench/workloads.py selfcheck --dir D
    python3 perfbench/workloads.py capacity --seed S --dir D --seconds T

``prepare`` loads (building on first use) the native kernel and writes the
workload's inputs to ``D``; ``measure`` runs in a fresh process, so its peak
RSS is the program's own, and writes ``D/result.json``. ``capacity``
measures ``serve-stream``'s closed-loop read throughput with ingest running,
the figure its offered read rate is set against. ``perfbench/run.py`` drives
them all and checks the result.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import multiprocessing
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.datasets import chung_lu_bipartite, make_jd_dataset
from repro.datasets.synthetic import powerlaw_weights
from repro.ensemble import EnsemFDet, EnsemFDetConfig
from repro.errors import ReproError
from repro.fdet import Fdet, FdetConfig
from repro.fdet._native import load_kernels, native_threads
from repro.graph import BipartiteGraph, GraphAccumulator, WindowConfig, save_edge_list
from repro.sampling import RandomEdgeSampler, StableEdgeSampler, materialize_plan, resolve_rng

import spans
from spans import vote_fingerprint as fingerprint

NPROC = os.cpu_count() or 1
#: the seed of everything that shapes a workload: the node-weight profile
#: and fraud-block layout are drawn from it, so every ``--seed`` exercises the
#: same shape while the seed draws the edges and the ensemble's samples
PROFILE_SEED = 0

#: ``setups`` is how many set-ups each run times; ``setup_s`` is their median
JD = {"index": 1, "scale": 5, "samples": 80, "max_blocks": 8, "threshold": 20, "setups": 5}
FANOUT = {
    "n_users": 200_000,
    "n_merchants": 40_000,
    "n_edges": 1_000_000,
    "samples": 16,
    "setups": 7,
}
SERVE = {
    "n_users": 6_000,
    "n_merchants": 2_400,
    "batch_edges": 2_048,
    "background_batches": 20,
    "setups": 5,
    "window": 20,
    "samples": 40,
    "stripe": 1_024,
    "read_rate": 250.0,
    "top_k": 50,
    "delete_every": 4,
    "delete_pairs": 64,
    #: latency limit on reads; the share of reads over it is reported, not
    #: checked, because a stall of the shared host can push p99 past it
    "query_limit_ms": 50.0,
}

#: detected-user quality floors on fit-jd against the injected fraud users
JD_MIN_PRECISION = 0.6
JD_MIN_RECALL = 0.45

#: The host-speed probe: sorting this fixed array (numpy only, none of the
#: program's code) is timed right after every timed operation and fit
#: set-up. The shared host's speed drifts by 10-25% over minutes, and the
#: probe drifts with it, so each time is reported at the reference speed:
#: times ``PROBE_REF_MS`` / the probe time next to it. The reference is a
#: fixed round figure near the probe's time on the 2-vCPU host the benchmark
#: was defined on (2.7-3.7 ms there); it only sets the scale of the results.
PROBE = np.random.default_rng(PROFILE_SEED).random(400_000)
PROBE_REF_MS = 3.6
#: A server launch is mostly interpreter start-up and imports, which the
#: sort does not track; it is scaled by the launch probe instead, a fresh
#: interpreter importing numpy, timed just before each launch.
LAUNCH_PROBE_REF_MS = 150.0


def probe_ms() -> float:
    """The fixed sort's time now: the best of three, so one stall is dropped."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        np.sort(PROBE)
        best = min(best, time.perf_counter() - started)
    return best * 1e3


def launch_probe_ms() -> float:
    """A fresh interpreter's ``import numpy`` now: the best of two."""
    best = float("inf")
    for _ in range(2):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], check=True)
        best = min(best, time.perf_counter() - started)
    return best * 1e3


def at_reference_speed(times, probes, reference: float = PROBE_REF_MS) -> list[float]:
    """Each time scaled by the host's speed, as the probe next to it read it."""
    return [t * reference / p for t, p in zip(times, probes, strict=True)]


def jd_config(seed: int) -> EnsemFDetConfig:
    return EnsemFDetConfig(
        sampler=RandomEdgeSampler(0.1),
        n_samples=JD["samples"],
        fdet=FdetConfig(max_blocks=JD["max_blocks"]),
        executor="serial",
        seed=seed,
    )


def fanout_config(seed: int) -> EnsemFDetConfig:
    return EnsemFDetConfig(
        sampler=RandomEdgeSampler(0.1),
        n_samples=FANOUT["samples"],
        executor="process",
        n_workers=NPROC,
        seed=seed,
    )


def serve_config(seed: int) -> EnsemFDetConfig:
    """What ``ensemfdet serve`` builds from the flags in :func:`serve_command`."""
    return EnsemFDetConfig(
        sampler=StableEdgeSampler(0.1, stripe=SERVE["stripe"]),
        n_samples=SERVE["samples"],
        fdet=FdetConfig(max_blocks=15),
        executor="serial",
        seed=seed,
    )


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def tail_count(n: int, q: float) -> int:
    """Samples lying beyond the ``q``-th percentile of ``n`` samples."""
    return int(n - np.ceil(n * q / 100.0))


def wait_for_children(timeout: float = 30.0) -> None:
    """Reap every child process so RUSAGE_CHILDREN covers it."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)


def rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def anon_rss_mb() -> float:
    """This process's resident anonymous memory now (``RssAnon``)."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("RssAnon:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class ForkWatch:
    """The largest anonymous RSS this process had when it forked a child.

    A forked pool worker starts with the parent's anonymous pages mapped,
    and its ``ru_maxrss`` counts them. Subtracting the parent's ``RssAnon``
    at fork leaves the worker's own memory.
    """

    def __init__(self) -> None:
        self.max_mb = 0.0
        os.register_at_fork(before=self._record)

    def _record(self) -> None:
        self.max_mb = max(self.max_mb, anon_rss_mb())


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------


def _git_sha(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.suffix in (".py", ".c") and path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(backends, transports, workers: int) -> dict:
    """Hardware, toolchain and code identity of one result."""
    root = Path.cwd()
    kernels = load_kernels()
    cache = os.environ.get("REPRO_NATIVE_CACHE_DIR", "")
    built = sorted(p.name for p in Path(cache).glob("peel-*.so")) if cache else []
    return {
        "nproc": NPROC,
        "affinity": len(os.sched_getaffinity(0)),
        "omp_threads": native_threads(max(1, workers)),
        "native_loaded": kernels is not None,
        "native_openmp": bool(kernels and kernels.has_openmp),
        "kernel": {
            # the .so name is a digest of the kernel source and its cflags
            "so": built,
            "extra_cflags": os.environ.get("REPRO_NATIVE_CFLAGS", ""),
        },
        "backend": sorted(backends),
        "transport": sorted(transports),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(root),
        "source_digest": _source_digest(root),
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------
# prepare
# ----------------------------------------------------------------------


def prepare(workload: str, seed: int, out: Path) -> None:
    load_kernels()  # build the kernel here, never inside a measured process
    if workload == "fit-jd":
        # the JD-like graph is the fixed shape; the seed drives the ensemble
        dataset = make_jd_dataset(JD["index"], scale=JD["scale"], seed=PROFILE_SEED)
        _save_graph(out / "graph.npz", dataset.graph)
        np.save(out / "fraud_users.npy", np.asarray(dataset.clean_fraud_labels))
    elif workload == "fanout-1m":
        n_users, n_merchants = FANOUT["n_users"], FANOUT["n_merchants"]
        users, merchants = next(_chung_lu(n_users, n_merchants, FANOUT["n_edges"], seed))
        pairs = np.unique(np.stack([users, merchants], axis=1), axis=0)
        graph = BipartiteGraph(n_users, n_merchants, pairs[:, 0], pairs[:, 1])
        _save_graph(out / "graph.npz", graph)
    elif workload == "serve-stream":
        users, merchants = _background(seed)
        acc = GraphAccumulator()
        acc.append(users, merchants)
        save_edge_list(acc.graph(), out / "edges.tsv")
    else:
        raise SystemExit(f"unknown workload {workload!r}")


def _save_graph(path: Path, graph: BipartiteGraph) -> None:
    columns = {
        "n_users": graph.n_users,
        "n_merchants": graph.n_merchants,
        "edge_users": graph.edge_users,
        "edge_merchants": graph.edge_merchants,
        "user_labels": graph.user_labels,
        "merchant_labels": graph.merchant_labels,
    }
    if graph.edge_weights is not None:
        columns["edge_weights"] = graph.edge_weights
    np.savez(path, **columns)


def _hand_off(path: Path) -> BipartiteGraph:
    """The program receives the graph: load the columns, validate, build."""
    with np.load(path) as columns:
        weights = columns["edge_weights"] if "edge_weights" in columns.files else None
        return BipartiteGraph(
            int(columns["n_users"]),
            int(columns["n_merchants"]),
            columns["edge_users"],
            columns["edge_merchants"],
            weights,
            user_labels=columns["user_labels"],
            merchant_labels=columns["merchant_labels"],
        )


def _chung_lu(n_users: int, n_merchants: int, chunk: int, seed: int):
    """Endless Chung–Lu edge chunks over the fixed power-law weight profile."""
    profile = np.random.default_rng(PROFILE_SEED)
    user_p = powerlaw_weights(n_users, 2.0, profile)
    merchant_p = powerlaw_weights(n_merchants, 1.6, profile)
    user_p /= user_p.sum()
    merchant_p /= merchant_p.sum()
    rng = np.random.default_rng(seed)
    while True:
        yield (
            rng.choice(n_users, size=chunk, p=user_p),
            rng.choice(n_merchants, size=chunk, p=merchant_p),
        )


def _stream(seed: int):
    """The serving workload's edge batches: background first, then deltas."""
    return _chung_lu(SERVE["n_users"], SERVE["n_merchants"], SERVE["batch_edges"], seed)


def _background(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The first batches of the stream, as the edge file the server reads."""
    stream = _stream(seed)
    chunks = [next(stream) for _ in range(SERVE["background_batches"])]
    return np.concatenate([c[0] for c in chunks]), np.concatenate([c[1] for c in chunks])


# ----------------------------------------------------------------------
# fit workloads
# ----------------------------------------------------------------------


def measure_fit(workload: str, seed: int, seconds: float, run_dir: Path, traced: bool) -> dict:
    jd = workload == "fit-jd"
    config = jd_config(seed) if jd else fanout_config(seed)
    threshold = JD["threshold"] if jd else max(1, FANOUT["samples"] // 4)
    rec = spans.Recorder() if traced else None
    if rec is not None:
        spans.install(rec)
    forks = ForkWatch()

    def op(graph):
        """One cold fit plus its verdict, as ``ensemfdet detect`` runs it."""
        result = EnsemFDet(config).fit(graph)
        return result, result.detect(threshold)

    setups, setup_probes, prints = [], [], set()
    for _ in range((JD if jd else FANOUT)["setups"]):
        started = time.perf_counter()
        graph = _hand_off(run_dir / "graph.npz")
        result, _ = op(graph)
        setups.append(time.perf_counter() - started)
        setup_probes.append(probe_ms())
        prints.add(fingerprint(result.vote_table.user_votes, result.vote_table.merchant_votes))

    walls, probes, backends, transports = [], [], set(), set()
    attempted = errors = 0
    t0 = time.monotonic()
    deadline = t0 + seconds
    while time.monotonic() < deadline:
        attempted += 1
        started = time.perf_counter()
        try:
            if rec is not None:
                with rec.span("op"):
                    result, detection = op(graph)
            else:
                result, detection = op(graph)
        except ReproError:
            errors += 1
            continue
        walls.append(time.perf_counter() - started)
        probes.append(probe_ms())
        errors += result.n_failed + max(0, len(result.retry_log) - 1)
        for entry in result.retry_log:
            backends.add(entry["backend"])
            transports.add(entry["transport"])
        prints.add(fingerprint(result.vote_table.user_votes, result.vote_table.merchant_votes))
    t1 = time.monotonic()

    parent_rss = rss_mb(resource.RUSAGE_SELF)
    wait_for_children()
    worker_rss = rss_mb(resource.RUSAGE_CHILDREN)
    worker_own = max(0.0, worker_rss - forks.max_mb)
    workers_ran = bool(transports - {"local"})
    n_workers = config.n_workers if workers_ran else 0

    if not walls:
        raise SystemExit(f"{workload}: no fit succeeded in {seconds} s")
    checks = {"vote_table_identical_across_fits": len(prints) == 1}
    quality = {}
    if jd:
        checks["reference_spot_check"] = _reference_spot_check(graph, config, result, seed)
        fraud = set(np.load(run_dir / "fraud_users.npy").tolist())
        found = set(detection.user_labels.tolist())
        hits = len(found & fraud)
        quality = {
            "precision": hits / max(1, len(found)),
            "recall": hits / max(1, len(fraud)),
        }
        checks["precision_recall_floor"] = (
            quality["precision"] >= JD_MIN_PRECISION and quality["recall"] >= JD_MIN_RECALL
        )
    else:
        serial = EnsemFDet(replace(config, executor="serial")).fit(graph)
        checks["matches_serial_fit"] = fingerprint(
            serial.vote_table.user_votes, serial.vote_table.merchant_votes
        ) in prints
        checks["workers_ran"] = workers_ran
    checks["worker_rss_measured"] = (worker_rss > 0 and worker_own > 0) or not workers_ran

    fit_ms = [w * 1e3 for w in walls]
    error_rate = errors / attempted
    e2e = {
        "setup_s": statistics.median(at_reference_speed(setups, setup_probes)),
        "op_ms_p50": statistics.median(at_reference_speed(fit_ms, probes)),
        "rss_mb": parent_rss + n_workers * worker_own,
        "success_rate": max(0.0, 1.0 - error_rate),
    }
    detail = {
        "fit_s_p50": [statistics.median(walls), "s", len(walls)],
        "setup_wall_s_p50": [statistics.median(setups), "s", len(setups)],
        "probe_ms_p50": [statistics.median(probes), "ms", len(probes)],
        "edges_per_s": [graph.n_edges * len(walls) / sum(walls), "edges/s", len(walls)],
        "parent_rss_mb": [parent_rss, "MB", 1],
        "worker_rss_mb": [worker_rss, "MB", 1],
        "worker_own_rss_mb": [worker_own, "MB", 1],
        "error_rate": [error_rate, "fraction", attempted],
    }
    if tail_count(len(walls), 90) >= 10:
        detail["fit_s_p90"] = [percentile(walls, 90), "s", tail_count(len(walls), 90)]
    for name, value in quality.items():
        detail[f"detected_user_{name}"] = [value, "fraction", 1]

    out = {
        "e2e": e2e,
        "detail": detail,
        "checks": checks,
        "attempted": attempted,
        "errors": errors,
        "op_ms_p50": e2e["op_ms_p50"],
        "meta": provenance(backends, transports, config.n_workers or 1),
    }
    if rec is not None:
        layers = spans.layer_metrics(rec.dump(), t0, t1, len(walls))
        own, _total = spans.self_times(rec.dump()["spans"], t0, t1)
        layers["unattributed_s"] = own.get("op", 0.0) / len(walls)
        layers["pool.worker_own_rss_mb"] = worker_own
        out["layers"] = layers
    return out


def _reference_spot_check(graph, config, result, seed: int, members: int = 3) -> bool:
    """A few members re-run through the ``reference`` engine, the oracle."""
    plans = config.sampler.plan_many(graph, config.n_samples, resolve_rng(config.seed))
    reference = Fdet(replace(config.fdet, engine="reference"))
    picks = np.random.default_rng(seed).choice(config.n_samples, size=members, replace=False)
    for index in sorted(picks.tolist()):
        expected = reference.detect(materialize_plan(graph, plans[index]))
        got = result.sample_detections[index].result
        if (
            expected.k_hat != got.k_hat
            or not np.array_equal(expected.detected_users(), got.detected_users())
            or not np.array_equal(expected.detected_merchants(), got.detected_merchants())
        ):
            return False
    return True


# ----------------------------------------------------------------------
# serve-stream
# ----------------------------------------------------------------------


def serve_command(run_dir: Path, seed: int, launch: int, traced: bool) -> list[str]:
    return [
        sys.executable,
        str(Path(__file__).with_name("serve_launcher.py")),
        str(run_dir / f"server{launch}.json"),
        "1" if traced else "0",
        "serve",
        str(run_dir / "edges.tsv"),
        "--state", str(run_dir / f"state{launch}.npz"),
        "--ratio", "0.1",
        "--stripe", str(SERVE["stripe"]),
        "--samples", str(SERVE["samples"]),
        "--window", str(SERVE["window"]),
        "--executor", "serial",
        "--seed", str(seed),
        "--port", "0",
        "--no-save-on-exit",
    ]


class _Server:
    """One ``ensemfdet serve`` process, started through the launcher."""

    def __init__(self, command: list[str], err_path: Path) -> None:
        self._err = open(err_path, "w")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._err, text=True
        )
        self.port = None
        for line in self.proc.stdout:
            if line.startswith("# serving on http://"):
                self.port = int(line.rsplit(":", 1)[1])
                break
        self.setup_s = time.perf_counter() - started
        if self.port is None:
            self.stop()
            raise RuntimeError(f"server exited before readiness; see {err_path}")

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self._err.close()
        return self.proc.returncode


def _request(conn, method: str, path: str, body: bytes | None = None):
    headers = {"Content-Type": "application/json"} if body else {}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    return response.status, response.read()


def measure_serve(seed: int, seconds: float, run_dir: Path, traced: bool) -> dict:
    def launch(index: int) -> _Server:
        command = serve_command(run_dir, seed, index, traced)
        return _Server(command, run_dir / f"server{index}.err")

    setups, setup_probes = [], []
    last = SERVE["setups"] - 1
    for index in range(SERVE["setups"]):
        setup_probes.append(launch_probe_ms())
        server = launch(index)
        setups.append(server.setup_s)
        if index < last:
            server.stop()
    try:
        client = _drive(server.port, seed, seconds, SERVE["read_rate"])
    finally:
        code = server.stop()
    report = json.loads((run_dir / f"server{last}.json").read_text())

    ingest_ms = [lat * 1e3 for lat in client["ingest_lat"]]
    read_ms = [lat * 1e3 for lat in client["read_lat"]]
    lag_ms = [lag * 1e3 for lag in client["read_lag"]]
    n_ingest = len(ingest_ms)
    if not ingest_ms or not read_ms:
        raise SystemExit(f"serve-stream: {n_ingest} ingests, {len(read_ms)} reads succeeded")
    runner = report["runner"]
    errors = client["non_200"] + client["refused"] + runner["failed_members"] + runner["retries"]
    attempted = client["attempted"]
    error_rate = errors / max(1, attempted)
    edges = SERVE["batch_edges"] * n_ingest
    query_p99 = percentile(read_ms, 99)

    cold_print, cold_top = _cold_window(seed, client["applied"])
    checks = {
        "server_exit_0": code == 0,
        "snapshot_version_bumps_by_1": client["versions_ok"],
        "final_matches_cold_fit_window": cold_print == report["final"].get("fingerprint"),
        "final_top_matches_cold_fit_window": cold_top == client["final_top"],
    }
    over_limit = sum(ms > SERVE["query_limit_ms"] for ms in read_ms)

    parent_rss = report["rss_mb"]
    e2e = {
        "setup_s": statistics.median(
            at_reference_speed(setups, setup_probes, LAUNCH_PROBE_REF_MS)
        ),
        "op_ms_p50": statistics.median(at_reference_speed(ingest_ms, client["probes"])),
        "rss_mb": parent_rss,
        "success_rate": max(0.0, 1.0 - error_rate),
    }
    detail = {
        "ingest_ms_p50": [statistics.median(ingest_ms), "ms", n_ingest],
        "setup_wall_s_p50": [statistics.median(setups), "s", len(setups)],
        "probe_ms_p50": [statistics.median(client["probes"]), "ms", n_ingest],
        "launch_probe_ms_p50": [statistics.median(setup_probes), "ms", len(setup_probes)],
        "ingest_edges_per_s": [edges / sum(client["ingest_lat"]), "edges/s", n_ingest],
        "query_ms_p50": [statistics.median(read_ms), "ms", len(read_ms)],
        "query_ms_p99": [query_p99, "ms", tail_count(len(read_ms), 99)],
        "query_over_limit": [over_limit / len(read_ms), "fraction", len(read_ms)],
        "generator_lag_ms_p50": [statistics.median(lag_ms), "ms", len(lag_ms)],
        "parent_rss_mb": [parent_rss, "MB", 1],
        "worker_rss_mb": [0.0, "MB", 0],
        "error_rate": [error_rate, "fraction", attempted],
    }
    if tail_count(n_ingest, 90) >= 10:
        detail["ingest_ms_p90"] = [percentile(ingest_ms, 90), "ms", tail_count(n_ingest, 90)]

    out = {
        "e2e": e2e,
        "detail": detail,
        "checks": checks,
        "attempted": attempted,
        "errors": errors,
        "op_ms_p50": e2e["op_ms_p50"],
        "meta": provenance(runner["backend"], runner["transport"], 1),
    }
    if traced:
        dump = report["trace"]
        t0, t1 = client["t0"], client["t1"]
        layers = spans.layer_metrics(dump, t0, t1, n_ingest)
        _own, total = spans.self_times(dump["spans"], t0, t1)
        def windowed(name):
            return [v for at, v in dump["samples"].get(name, ()) if t0 <= at <= t1]

        waits = sum(windowed("serve.queue_wait_ms")) / 1e3
        writer = total.get("serve.apply_ingest", 0.0)
        layers["unattributed_s"] = max(0.0, sum(client["ingest_lat"]) - writer - waits) / max(
            1, n_ingest
        )
        dispatch = windowed("serve.dispatch_read_ms")
        service = [lat * 1e3 for lat in client["read_service"]]
        gaps = [c - s for c, s in zip(service, dispatch)]
        layers["serve.http_ms"] = statistics.median(gaps) if gaps else 0.0
        layers["serve.generator_lag_ms"] = statistics.median(lag_ms)
        out["layers"] = layers
    return out


def _drive(port: int, seed: int, seconds: float, read_rate: float | None) -> dict:
    """Closed-loop ingest on one connection, reads on another.

    Reads are offered at ``read_rate`` per second (open loop, each timed from
    when it was due), or back to back when ``read_rate`` is None (closed
    loop, which measures read capacity). The first ``window`` batches are
    ingested before the timed region, so the region sees the steady state:
    a full window that expires and compacts as it slides. After each ingest
    the writer times the host-speed probe before it posts the next batch.
    """
    batches = enumerate(_stream(seed))
    for _ in range(SERVE["background_batches"]):
        next(batches)
    read_labels = np.random.default_rng(seed).integers(0, SERVE["n_users"], size=1 << 16)

    state = {
        "ingest_lat": [], "probes": [], "read_lat": [], "read_lag": [], "read_service": [],
        "applied": [], "non_200": 0, "refused": 0, "attempted": 0, "versions_ok": True,
    }
    lock = threading.Lock()

    def count(kind: str) -> None:
        with lock:
            state[kind] += 1

    writer = {"conn": http.client.HTTPConnection("127.0.0.1", port, timeout=120),
              "version": 1, "previous": None}

    def ingest_one() -> None:
        """Post the next batch (with a deletion every few); record the result."""
        k, (users, merchants) = next(batches)
        payload = {"users": users.tolist(), "merchants": merchants.tolist(), "timestamp": float(k)}
        removal = None
        if writer["previous"] is not None and k % SERVE["delete_every"] == 0:
            removal = _deletion_pairs(*writer["previous"])
            payload["remove_users"] = removal[0].tolist()
            payload["remove_merchants"] = removal[1].tolist()
        body = json.dumps(payload).encode()
        count("attempted")
        started = time.monotonic()
        try:
            status, data = _request(writer["conn"], "POST", "/ingest", body)
        except OSError:
            count("refused")
            writer["conn"].close()
            writer["conn"] = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
            return
        elapsed = time.monotonic() - started
        if status != 200:
            count("non_200")
            return
        state["ingest_lat"].append(elapsed)
        state["probes"].append(probe_ms())
        writer["version"] += 1
        if json.loads(data)["snapshot_version"] != writer["version"]:
            state["versions_ok"] = False
        state["applied"].append((k, users, merchants, removal))
        writer["previous"] = (users, merchants)

    for _ in range(SERVE["window"]):
        ingest_one()
    warm = len(state["ingest_lat"])
    t0 = time.monotonic()
    deadline = t0 + seconds

    def ingest() -> None:
        while time.monotonic() < deadline:
            ingest_one()

    def read() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        i = 0
        try:
            while True:
                due = t0 + i / read_rate if read_rate else time.monotonic()
                if due >= deadline:
                    break
                pause = due - time.monotonic()
                if pause > 0:
                    time.sleep(pause)
                if i % 2:
                    path = f"/top?k={SERVE['top_k']}"
                else:
                    path = f"/score/{int(read_labels[i % read_labels.size])}"
                i += 1
                count("attempted")
                sent = time.monotonic()
                try:
                    status, _ = _request(conn, "GET", path)
                except OSError:
                    count("refused")
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
                    continue
                done = time.monotonic()
                if status != 200:
                    count("non_200")
                    continue
                state["read_lat"].append(done - due)
                state["read_lag"].append(sent - due)
                state["read_service"].append(done - sent)
        finally:
            conn.close()

    threads = [threading.Thread(target=ingest), threading.Thread(target=read)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    state["t0"], state["t1"] = t0, time.monotonic()
    state["ingest_lat"] = state["ingest_lat"][warm:]
    state["probes"] = state["probes"][warm:]

    try:
        status, data = _request(writer["conn"], "GET", f"/top?k={SERVE['top_k']}")
    finally:
        writer["conn"].close()
    state["final_top"] = (
        [[e["user"], e["score"]] for e in json.loads(data)["users"]] if status == 200 else None
    )
    return state


def read_capacity(seed: int, seconds: float, run_dir: Path) -> dict:
    """Closed-loop read throughput of ``serve-stream`` while ingest runs."""
    server = _Server(serve_command(run_dir, seed, 0, False), run_dir / "server0.err")
    try:
        client = _drive(server.port, seed, seconds, None)
    finally:
        server.stop()
    reads_per_s = len(client["read_lat"]) / (client["t1"] - client["t0"])
    return {
        "reads_per_s": reads_per_s,
        "read_ms_p50": statistics.median(client["read_lat"]) * 1e3,
        "ingests": len(client["ingest_lat"]),
        "ingest_ms_p50": statistics.median(client["ingest_lat"]) * 1e3,
        "offered_read_rate": SERVE["read_rate"],
        "offered_fraction": SERVE["read_rate"] / reads_per_s,
    }


def _deletion_pairs(users: np.ndarray, merchants: np.ndarray):
    """The first distinct ``(user, merchant)`` pairs of the previous batch.

    That batch is still inside the window, so every pair has a live edge.
    """
    keys = users.astype(np.int64) * (SERVE["n_merchants"] + 1) + merchants
    _, first = np.unique(keys, return_index=True)
    picks = np.sort(first)[: SERVE["delete_pairs"]]
    return users[picks], merchants[picks]


def _cold_window(seed: int, applied) -> tuple[str, list]:
    """Fingerprint and top-k of a cold ``fit_window`` on the replayed window."""
    # the CLI reads the edge file as one batch, which fixes the node order
    background = GraphAccumulator()
    background.append(*_background(seed))
    acc = GraphAccumulator.from_graph(
        background.graph(), window=WindowConfig(max_batches=SERVE["window"]), timestamp=0.0
    )
    for k, users, merchants, removal in applied:
        if removal is not None:
            acc.retract(*removal)
        acc.append(users, merchants, timestamp=float(k))
        acc.expire()
        acc.maybe_compact()
    window = acc.window()
    table = EnsemFDet(serve_config(seed)).fit_window(window).vote_table
    labels = window.graph.user_labels
    scores = np.array([table.user_votes.get(int(u), 0) for u in labels.tolist()], dtype=np.float64)
    order = np.lexsort((np.arange(labels.size), -scores))[: SERVE["top_k"]]
    top = [[int(labels[i]), float(scores[i])] for i in order]
    return fingerprint(table.user_votes, table.merchant_votes), top


# ----------------------------------------------------------------------
# fault self-check
# ----------------------------------------------------------------------


def selfcheck() -> dict:
    """Tiny fit; run once with ``REPRO_FAULTS`` armed and once without."""
    graph = chung_lu_bipartite(400, 120, 3_000, rng=5)
    config = EnsemFDetConfig(sampler=RandomEdgeSampler(0.3), n_samples=8, executor="serial", seed=5)
    rec = spans.Recorder()
    spans.install(rec)
    t0 = time.monotonic()
    result = EnsemFDet(config).fit(graph)
    layers = spans.layer_metrics(rec.dump(), t0, time.monotonic(), 1)
    errors = result.n_failed + max(0, len(result.retry_log) - 1)
    return {
        "fingerprint": fingerprint(result.vote_table.user_votes, result.vote_table.merchant_votes),
        "runner.retries": layers["runner.retries"],
        "runner.failed_members": layers["runner.failed_members"],
        "errors": errors,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("prepare", "measure", "selfcheck", "capacity"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setups", type=int, help="override the workload's set-up count")
    args = parser.parse_args(argv)
    run_dir = Path(args.dir)
    if args.setups:
        for table in (JD, FANOUT, SERVE):
            table["setups"] = args.setups
    if args.mode == "prepare":
        prepare(args.workload, args.seed, run_dir)
        return 0
    if args.mode == "selfcheck":
        result = selfcheck()
    elif args.mode == "capacity":
        result = read_capacity(args.seed, args.seconds, run_dir)
    elif args.workload == "serve-stream":
        result = measure_serve(args.seed, args.seconds, run_dir, args.traced)
    else:
        result = measure_fit(args.workload, args.seed, args.seconds, run_dir, args.traced)
    (run_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
