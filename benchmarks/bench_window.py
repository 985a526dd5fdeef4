"""Bench: sliding-window throughput, bounded memory, and windowed speedup.

Two claims of the windowed refactor, measured on the same world size as
``bench_incremental``:

* **1% churn speedup** — after a ≤1% edge delta on a windowed detector,
  ``update`` must stay bit-identical to a cold ``EnsemFDet.fit_window``
  on the live window *and* beat it by at least **5x** at ``N = 40``
  (stripe-locality is preserved through the liveness overlay);
* **sliding steady state** — streaming ≥20 window steps through a full
  rolling window keeps the stored physical rows bounded (expiry +
  compaction once more than ``repro.graph.window.COMPACT_DEAD_FRACTION``
  (one half) of the rows are dead: never more than
  ``1/(1-COMPACT_DEAD_FRACTION)`` times the live edges), while the vote
  table keeps matching the cold window fit.

Run standalone to (re)record the committed baseline::

    python benchmarks/bench_window.py --update   # rewrite baselines/window.json
    python benchmarks/bench_window.py --check    # measure and gate (perf guard)
    python benchmarks/bench_window.py            # measure and print
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

_HERE = os.path.dirname(os.path.abspath(__file__))
if __name__ == "__main__":  # allow standalone runs without PYTHONPATH
    sys.path.insert(0, os.path.join(_HERE, "..", "src"))

from repro.datasets import chung_lu_bipartite
from repro.ensemble import EnsemFDet, EnsemFDetConfig, IncrementalEnsemFDet
from repro.fdet import FdetConfig
from repro.graph import GraphAccumulator, WindowConfig
from repro.graph.window import COMPACT_DEAD_FRACTION
from repro.parallel import Timer, time_callable
from repro.sampling import StableEdgeSampler

BASELINE = os.path.join(_HERE, "baselines", "window.json")

N_USERS, N_MERCHANTS, N_EDGES = 6_000, 2_400, 40_960
STRIPE = 1_024
N_SAMPLES = 40
RATIO = 0.1
SEED = 7
DELTA_FRACTION = 0.01
MIN_SPEEDUP = 5.0

#: sliding phase: a full 20-slot window plus 5 steps of genuine expiry
WINDOW_BATCHES = 20
STEP_EDGES = 2_048
N_STEPS = 25


def build_config() -> EnsemFDetConfig:
    return EnsemFDetConfig(
        sampler=StableEdgeSampler(RATIO, stripe=STRIPE),
        n_samples=N_SAMPLES,
        fdet=FdetConfig(max_blocks=15),
        executor="serial",
        seed=SEED,
    )


def _tables_match(cold, detector) -> bool:
    return cold.vote_table.user_votes == detector.vote_table.user_votes and (
        cold.vote_table.merchant_votes == detector.vote_table.merchant_votes
    )


def measure_churn_speedup() -> dict:
    """Windowed 1% delta: update vs cold ``fit_window``, bit-identical."""
    graph = chung_lu_bipartite(N_USERS, N_MERCHANTS, N_EDGES, rng=0)
    config = build_config()
    # window wide enough that the timed step sees churn, not expiry
    detector = IncrementalEnsemFDet(config, window=WindowConfig(max_batches=64))
    detector.fit(graph)

    n_delta = int(DELTA_FRACTION * graph.n_edges)
    rng = np.random.default_rng(SEED + 1)
    delta_users = rng.integers(0, N_USERS, n_delta)
    delta_merchants = rng.integers(0, N_MERCHANTS, n_delta)
    update = time_callable(detector.update, delta_users, delta_merchants)
    report = update.value

    cold = time_callable(EnsemFDet(config).fit_window, detector.window())
    speedup = cold.seconds / max(update.seconds, 1e-9)
    return {
        "n_live_edges": detector.window().n_live,
        "n_delta_edges": n_delta,
        "n_samples": N_SAMPLES,
        "n_refreshed": report.n_refreshed,
        "cold_fit_window_seconds": round(cold.seconds, 4),
        "update_seconds": round(update.seconds, 4),
        "speedup": round(speedup, 2),
        "identical_to_cold_fit": _tables_match(cold.value, detector),
    }


def measure_sliding() -> dict:
    """Stream N_STEPS slots through a WINDOW_BATCHES-slot rolling window."""
    pool = chung_lu_bipartite(N_USERS, N_MERCHANTS, N_STEPS * STEP_EDGES, rng=2)
    users = pool.user_labels[pool.edge_users]
    merchants = pool.merchant_labels[pool.edge_merchants]

    config = build_config()
    window = WindowConfig(max_batches=WINDOW_BATCHES)
    detector = IncrementalEnsemFDet(config, window=window)
    seed_acc = GraphAccumulator()
    seed_acc.append(users[:STEP_EDGES], merchants[:STEP_EDGES])
    detector.fit(seed_acc.graph())

    stored_over_live = []
    memory_bounded = True
    n_expired = 0
    with Timer() as timer:
        for step in range(1, N_STEPS):
            lo, hi = step * STEP_EDGES, (step + 1) * STEP_EDGES
            report = detector.update(users[lo:hi], merchants[lo:hi])
            n_expired += report.n_expired_edges
            snapshot = detector.window()
            stored, live = snapshot.graph.n_edges, snapshot.n_live
            stored_over_live.append(round(stored / max(live, 1), 3))
            # the maybe_compact invariant: dead fraction never exceeds
            # COMPACT_DEAD_FRACTION once an update completes
            if stored > live / (1.0 - COMPACT_DEAD_FRACTION) + 1:
                memory_bounded = False

    cold = EnsemFDet(config).fit_window(detector.window())
    edges_streamed = (N_STEPS - 1) * STEP_EDGES
    return {
        "n_steps": N_STEPS,
        "window_batches": WINDOW_BATCHES,
        "step_edges": STEP_EDGES,
        "n_expired_edges": n_expired,
        "final_live_edges": detector.window().n_live,
        "final_watermark": detector.window().watermark,
        "peak_stored_over_live": max(stored_over_live),
        "memory_bounded": memory_bounded,
        "stream_seconds": round(timer.elapsed, 4),
        "edges_per_second": round(edges_streamed / max(timer.elapsed, 1e-9)),
        "identical_to_cold_fit": _tables_match(cold, detector),
    }


def measure() -> dict:
    return {"churn": measure_churn_speedup(), "sliding": measure_sliding()}


def _gate(stats: dict) -> list[str]:
    """The assertions both the pytest hook and ``--check`` enforce."""
    churn, sliding = stats["churn"], stats["sliding"]
    failures = []
    if not churn["identical_to_cold_fit"]:
        failures.append("windowed update diverged from cold fit_window")
    if churn["speedup"] < MIN_SPEEDUP:
        failures.append(
            f"1% churn speedup {churn['speedup']}x below the {MIN_SPEEDUP}x bar"
        )
    if churn["n_refreshed"] >= N_SAMPLES // 2:
        failures.append(
            f"1% churn refreshed {churn['n_refreshed']}/{N_SAMPLES} members"
        )
    if sliding["n_steps"] < 20:
        failures.append("sliding phase must cover at least 20 window steps")
    if not sliding["memory_bounded"]:
        failures.append("stored rows exceeded the compaction bound")
    if sliding["n_expired_edges"] == 0:
        failures.append("sliding phase never expired an edge")
    if not sliding["identical_to_cold_fit"]:
        failures.append("sliding window diverged from cold fit_window")
    return failures


def test_windowed_speedup_memory_and_identity():
    stats = measure()
    print()
    for section, values in stats.items():
        print(f"  [{section}]")
        for key, value in values.items():
            print(f"    {key}: {value}")
    assert not _gate(stats), _gate(stats)


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--update", action="store_true", help="rewrite the committed baseline")
    parser.add_argument("--check", action="store_true", help="exit non-zero on any gate failure")
    args = parser.parse_args(argv)

    stats = measure()
    print(json.dumps(stats, indent=2))
    if args.update:
        os.makedirs(os.path.dirname(BASELINE), exist_ok=True)
        payload = {"meta": {"cpu_count": os.cpu_count()}, **stats}
        with open(BASELINE, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"baseline written to {BASELINE}")
    failures = _gate(stats)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
