"""Bench: zero-copy ensemble fan-out vs the eager pickled-subgraph pipeline.

At ``N = 80`` on jd-like data (jd1), measures for the process backend:

* **transfer bytes** — what the parent pickles into the workers: whole
  sampled subgraphs per chunk (eager) vs one ~100-byte store-file layout plus
  the compact per-member :class:`~repro.sampling.SamplePlan` arrays
  (zero-copy). The plan path must ship **≥5x** fewer bytes.
* **peak RSS** — each pipeline runs one full fit in a fresh subprocess so
  ``ru_maxrss`` (self + children) is a per-scenario high-water mark; the
  zero-copy fit must peak measurably lower (eager materializes all N
  subgraphs in the parent before detection starts).
* **wall-clock** of the two fits, for the committed record.
* **hygiene** — no ``repro_gs_spill_*`` directory survives the fit.

Pass/fail compares plan-vs-eager measured on the *same* host in the same
run; the committed baseline (``baselines/shm_fanout.json``) records the
reference host's numbers so drifts show up in review. Regenerate it with::

    python benchmarks/bench_shm_fanout.py --update
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(_HERE, "..", "src"))
sys.path.insert(0, _HERE)

from conftest import run_once  # noqa: E402 - after the path setup, like check_regression

from repro.faults.chaos import leaked_spills  # noqa: E402

BASELINE_PATH = os.path.join(_HERE, "baselines", "shm_fanout.json")

N_SAMPLES = 80
SAMPLE_RATIO = 0.1
#: jd1 at 5x of its 1/50-scale recipe ≈ 100k edges — big enough that the
#: eager pipeline's N resident subgraphs dominate the parent's footprint
DATASET_SCALE = 5.0
WORKERS = 2
SEED = 0

_SCENARIO = r"""
import json, multiprocessing, resource, sys, time
from concurrent.futures import ProcessPoolExecutor
from repro.datasets import make_jd_dataset
from repro.ensemble import EnsemFDet, EnsemFDetConfig
from repro.ensemble.runner import _chunked
from repro.ensemble.voting import VoteTable
from repro.fdet import Fdet, FdetConfig
from repro.parallel import ExecutorMode, Timer, peak_rss_bytes
from repro.sampling import RandomEdgeSampler, resolve_rng

def detect_chunk(args):
    fdet_config, samples = args
    fdet = Fdet(fdet_config)
    return [fdet.detect(sample) for sample in samples]

pipeline, n_samples, ratio, dataset_scale, workers, seed = (
    sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), float(sys.argv[4]),
    int(sys.argv[5]), int(sys.argv[6]),
)
graph = make_jd_dataset(1, scale=dataset_scale, seed=seed).graph
config = EnsemFDetConfig(
    sampler=RandomEdgeSampler(ratio), n_samples=n_samples,
    fdet=FdetConfig(max_blocks=8), executor=ExecutorMode.PROCESS,
    n_workers=workers, seed=seed,
)
with Timer() as timer:
    if pipeline == "plan":
        result = EnsemFDet(config).fit(graph)
        votes = result.vote_table.user_votes
    else:  # the historical eager pipeline: materialize everything up front,
        # then pickle one chunk of whole subgraphs to each worker
        rng = resolve_rng(config.seed)
        samples = config.sampler.sample_many(graph, config.n_samples, rng)
        chunks = _chunked(samples, workers)
        with ProcessPoolExecutor(
            max_workers=len(chunks), mp_context=multiprocessing.get_context("fork")
        ) as pool:
            chunk_results = list(pool.map(detect_chunk, [(config.fdet, c) for c in chunks]))
        results = [r for chunk in chunk_results for r in chunk]
        votes = VoteTable.from_detections(
            [r.detected_users().tolist() for r in results],
            [r.detected_merchants().tolist() for r in results],
        ).user_votes
# the plan fit shuts its pool down without waiting for the workers; reap
# them first, or RUSAGE_CHILDREN may not cover them yet
deadline = time.monotonic() + 30.0
while multiprocessing.active_children() and time.monotonic() < deadline:
    time.sleep(0.01)
print(json.dumps({
    "wall_sec": timer.elapsed,
    "parent_rss_bytes": peak_rss_bytes(),
    "worker_rss_bytes": peak_rss_bytes(include_children=True),
    "vote_fingerprint": sorted(votes.items())[:50],
}))
"""


def run_scenario(pipeline: str) -> dict:
    """One full fit in a fresh subprocess; returns its wall/RSS record."""
    env = dict(os.environ)
    src = os.path.join(_HERE, "..", "src")
    env["PYTHONPATH"] = src + os.pathsep * bool(env.get("PYTHONPATH")) + env.get("PYTHONPATH", "")
    env["REPRO_WORKERS"] = str(WORKERS)
    out = subprocess.run(
        [
            sys.executable, "-c", _SCENARIO, pipeline,
            str(N_SAMPLES), str(SAMPLE_RATIO), str(DATASET_SCALE),
            str(WORKERS), str(SEED),
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def measure_transfer_bytes() -> dict:
    """Pickled parent→worker payload bytes of both pipelines (same fit)."""
    from repro.datasets import make_jd_dataset
    from repro.ensemble.runner import _chunked
    from repro.fdet import FdetConfig
    from repro.graph import GraphStore
    from repro.sampling import RandomEdgeSampler, resolve_rng

    graph = make_jd_dataset(1, scale=DATASET_SCALE, seed=SEED).graph
    config = FdetConfig(max_blocks=8)
    sampler = RandomEdgeSampler(SAMPLE_RATIO)

    samples = sampler.sample_many(graph, N_SAMPLES, resolve_rng(SEED))
    eager = sum(
        len(pickle.dumps((config, chunk)))
        for chunk in _chunked(samples, WORKERS)
    )

    plans = sampler.plan_many(graph, N_SAMPLES, resolve_rng(SEED))
    with GraphStore.from_graph(graph).export_shared() as spill:
        plan = sum(
            len(pickle.dumps((spill.layout, config, chunk, False)))
            for chunk in _chunked(plans, WORKERS)
        )
    return {
        "n_edges": graph.n_edges,
        "eager_bytes": eager,
        "plan_bytes": plan,
        "ratio": eager / plan,
    }


def measure() -> dict:
    transfer = measure_transfer_bytes()
    eager = run_scenario("eager")
    plan = run_scenario("plan")
    assert plan["vote_fingerprint"] == eager["vote_fingerprint"], (
        "plan-based fit diverged from the eager pipeline"
    )
    keys = ("wall_sec", "parent_rss_bytes", "worker_rss_bytes")
    return {
        "n_samples": N_SAMPLES,
        "sample_ratio": SAMPLE_RATIO,
        "dataset_scale": DATASET_SCALE,
        "workers": WORKERS,
        "transfer": transfer,
        "eager": {k: eager[k] for k in keys},
        "plan": {k: plan[k] for k in keys},
    }


def test_shm_fanout(benchmark):
    stats = run_once(benchmark, measure)
    transfer = stats["transfer"]

    # the headline acceptance: ≥5x fewer parent→worker bytes
    assert transfer["ratio"] >= 5.0, transfer

    # the parent must peak measurably lower: it no longer materializes all
    # N subgraphs before (and keeps them across) the detection stage
    assert stats["plan"]["parent_rss_bytes"] < stats["eager"]["parent_rss_bytes"], stats
    # the plan fit's workers were reaped before the children's peak was read
    assert stats["plan"]["worker_rss_bytes"] > 0, stats

    # the fit's spill directory must not survive it
    assert leaked_spills() == []

    print()
    print(
        f"transfer bytes  eager={transfer['eager_bytes']:>12,}  "
        f"plan={transfer['plan_bytes']:>12,}  ({transfer['ratio']:.1f}x smaller)"
    )
    for name in ("eager", "plan"):
        row = stats[name]
        print(
            f"{name:<6} wall={row['wall_sec']:.2f}s  "
            f"parent_rss={row['parent_rss_bytes'] / 1e6:.1f} MB  "
            f"worker_rss={row['worker_rss_bytes'] / 1e6:.1f} MB"
        )
    if os.path.exists(BASELINE_PATH):
        with open(BASELINE_PATH) as handle:
            print(f"committed baseline: {json.load(handle)['transfer']}")


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--update", action="store_true", help="rewrite the baseline JSON")
    args = parser.parse_args(argv)
    stats = measure()
    print(json.dumps(stats, indent=2))
    if args.update:
        os.makedirs(os.path.dirname(BASELINE_PATH), exist_ok=True)
        stats["meta"] = {"cpu_count": os.cpu_count()}
        with open(BASELINE_PATH, "w") as handle:
            json.dump(stats, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"baseline written to {BASELINE_PATH}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(_HERE, "..", "src"))
    sys.exit(main())
