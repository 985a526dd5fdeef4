"""Bench: one-pass batched native ensemble vs the committed fan-out wall.

Same workload as ``bench_shm_fanout.py`` (jd1 at 5x, ``N = 80`` members,
10% edge samples, 8 blocks) so the committed fan-out baseline is a direct
basis for the headline number: one ``repro_fdet_batch`` call detects all N
members against the shared parent columns (serial executor: on the
reference host the batch replaces the process pool), and its wall is
compared against the committed ``baselines/shm_fanout.json`` *plan* fit
wall — the pre-batch production pipeline on the same workload — which it
must beat by **>=3x** on the baseline host. Bitwise parity of the batch
with the reference engine is pinned by ``tests/fdet/test_batched_parity.py``.

Regenerate the committed record with::

    python benchmarks/bench_native_ensemble.py --update
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(_HERE, "..", "src"))
sys.path.insert(0, _HERE)

from bench_shm_fanout import (  # noqa: E402 - single source of truth for the workload
    BASELINE_PATH as FANOUT_BASELINE_PATH,
    DATASET_SCALE,
    N_SAMPLES,
    SAMPLE_RATIO,
    SEED,
)
from conftest import run_once  # noqa: E402

BASELINE_PATH = os.path.join(_HERE, "baselines", "native_ensemble.json")

#: the headline acceptance: batched fit wall vs the committed fan-out wall
TARGET_SPEEDUP = 3.0
ROUNDS = 3

_SCENARIO = r"""
import json, sys, time
from repro.datasets import make_jd_dataset
from repro.ensemble import EnsemFDet, EnsemFDetConfig
from repro.fdet import FdetConfig
from repro.sampling import RandomEdgeSampler

n_samples, ratio, dataset_scale, seed, rounds = (
    int(sys.argv[1]), float(sys.argv[2]), float(sys.argv[3]),
    int(sys.argv[4]), int(sys.argv[5]),
)
graph = make_jd_dataset(1, scale=dataset_scale, seed=seed).graph
config = EnsemFDetConfig(
    sampler=RandomEdgeSampler(ratio), n_samples=n_samples,
    fdet=FdetConfig(max_blocks=8), executor="serial", seed=seed,
)
EnsemFDet(config).fit(graph)  # warm: kernel build, dataset caches
walls = []
for _ in range(rounds):
    start = time.perf_counter()
    EnsemFDet(config).fit(graph)
    walls.append(time.perf_counter() - start)
print(json.dumps({"wall_sec": min(walls), "walls": walls}))
"""


def run_scenario(rounds: int = ROUNDS) -> dict:
    """Best-of-``rounds`` serial fit in a fresh subprocess."""
    env = dict(os.environ)
    src = os.path.join(_HERE, "..", "src")
    env["PYTHONPATH"] = src + os.pathsep * bool(env.get("PYTHONPATH")) + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [
            sys.executable, "-c", _SCENARIO,
            str(N_SAMPLES), str(SAMPLE_RATIO), str(DATASET_SCALE),
            str(SEED), str(rounds),
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def committed_fanout_wall() -> float | None:
    """The plan-pipeline fit wall recorded by the shm_fanout baseline."""
    if not os.path.exists(FANOUT_BASELINE_PATH):
        return None
    with open(FANOUT_BASELINE_PATH) as handle:
        return json.load(handle)["plan"]["wall_sec"]


def measure() -> dict:
    batched = run_scenario()
    stats = {
        "n_samples": N_SAMPLES,
        "sample_ratio": SAMPLE_RATIO,
        "dataset_scale": DATASET_SCALE,
        "rounds": ROUNDS,
        "batched": {"wall_sec": batched["wall_sec"], "walls": batched["walls"]},
    }
    fanout_wall = committed_fanout_wall()
    if fanout_wall is not None:
        stats["fanout_basis_wall_sec"] = fanout_wall
        stats["speedup_vs_committed_fanout"] = fanout_wall / batched["wall_sec"]
    return stats


def test_native_ensemble(benchmark):
    from repro.fdet._native import native_available

    if not native_available():
        import pytest

        pytest.skip("native kernel unavailable (no C compiler)")

    stats = run_once(benchmark, measure)

    # the headline: >=3x over the committed fan-out pipeline wall, asserted
    # on the host class the basis was recorded on (same cpu count)
    if os.path.exists(FANOUT_BASELINE_PATH):
        with open(FANOUT_BASELINE_PATH) as handle:
            fanout_meta = json.load(handle).get("meta", {})
        if fanout_meta.get("cpu_count") == os.cpu_count():
            assert stats["speedup_vs_committed_fanout"] >= TARGET_SPEEDUP, stats

    print()
    print(f"batched={stats['batched']['wall_sec']:.3f}s")
    if "speedup_vs_committed_fanout" in stats:
        print(
            f"vs committed fan-out wall {stats['fanout_basis_wall_sec']:.3f}s: "
            f"{stats['speedup_vs_committed_fanout']:.2f}x"
        )


def main(argv: list[str] | None = None) -> int:
    import argparse

    from repro.fdet._native import native_available

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--update", action="store_true", help="rewrite the baseline JSON")
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"fail unless the batched fit beats the committed fan-out wall {TARGET_SPEEDUP}x",
    )
    args = parser.parse_args(argv)
    stats = measure()
    print(json.dumps(stats, indent=2))
    if args.update:
        os.makedirs(os.path.dirname(BASELINE_PATH), exist_ok=True)
        stats["meta"] = {"cpu_count": os.cpu_count(), "native_kernel": native_available()}
        with open(BASELINE_PATH, "w") as handle:
            json.dump(stats, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"baseline written to {BASELINE_PATH}")
    if args.check:
        speedup = stats.get("speedup_vs_committed_fanout")
        if speedup is None:
            print("no committed fan-out baseline to check against", file=sys.stderr)
            return 2
        if speedup < TARGET_SPEEDUP:
            print(
                f"FAILED: batched fit is only {speedup:.2f}x of the committed "
                f"fan-out wall (target {TARGET_SPEEDUP}x)",
                file=sys.stderr,
            )
            return 1
        print(f"ok: {speedup:.2f}x >= {TARGET_SPEEDUP}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
