#!/usr/bin/env python
"""Perf-regression guard for the peeling microbenchmark.

Times one greedy peel per (engine, size) on the same Chung-Lu graphs as
``bench_micro_peeling.py``, plus one small batched ensemble fit (the
``bench_native_ensemble.py`` workload at guard scale), plus
the scoring-server load case from ``bench_serve_load.py`` (HTTP ingest
seconds-per-1k-edges and query p99, compared against
``baselines/serve_load.json``), plus the out-of-core guard case from
``bench_scale.py`` (store write + wide-resident vs sharded-mmap fit
seconds, compared against ``baselines/scale.json``; the measurement
itself asserts the two fits stay bitwise identical), and compares against
a committed baseline JSON (``benchmarks/baselines/micro_peeling.json``). Any entry slower than
``--threshold`` (default 2x — generous enough for machine-to-machine noise,
tight enough to catch an accidental de-vectorisation) fails the run.

Usage::

    python benchmarks/check_regression.py            # compare against baseline
    python benchmarks/check_regression.py --update   # re-measure and rewrite it
    python benchmarks/check_regression.py --fast     # small sizes only (CI/tier-1)

``--fast`` times only the smaller graph sizes and compares just those
baseline entries — quick enough to run inside the regular test suite (see
``tests/test_perf_guard.py``) while still catching an accidental
de-vectorisation of either engine.

The baseline records the host's CPU count for context; regenerate it with
``--update`` whenever the engines change shape intentionally.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(_HERE, "..", "src"))
sys.path.insert(0, _HERE)

from bench_micro_peeling import SIZES  # noqa: E402 - single source of truth for sizes
from bench_scale import (  # noqa: E402 - guard-scale out-of-core case
    BASELINE as SCALE_BASELINE,
    guard_timings as scale_guard_timings,
    measure as measure_scale,
)
from bench_serve_load import (  # noqa: E402 - guard-scale serving load case
    BASELINE as SERVE_BASELINE,
    guard_timings as serve_guard_timings,
    measure as measure_serve,
)

from repro.datasets import chung_lu_bipartite  # noqa: E402
from repro.fdet import LogWeightedDensity, PeelEngine, greedy_peel  # noqa: E402
from repro.fdet._native import native_available  # noqa: E402
from repro.parallel import time_callable  # noqa: E402

DEFAULT_BASELINE = os.path.join(_HERE, "baselines", "micro_peeling.json")


#: guard-scale batched ensemble: big enough that the kernel dominates,
#: small enough for tier-1 (see tests/test_perf_guard.py)
ENSEMBLE_CASE = {"n_users": 2_000, "n_merchants": 800, "n_edges": 8_000, "n_samples": 12}


def measure_ensemble() -> dict[str, float]:
    """Serial batched fit seconds on the guard-scale ensemble."""
    from repro.ensemble import EnsemFDet, EnsemFDetConfig
    from repro.fdet import FdetConfig
    from repro.fdet._native import native_available
    from repro.sampling import RandomEdgeSampler

    if not native_available():
        return {}
    graph = chung_lu_bipartite(
        ENSEMBLE_CASE["n_users"], ENSEMBLE_CASE["n_merchants"], ENSEMBLE_CASE["n_edges"], rng=0
    )
    config = EnsemFDetConfig(
        sampler=RandomEdgeSampler(0.3),
        n_samples=ENSEMBLE_CASE["n_samples"],
        fdet=FdetConfig(max_blocks=4),
        executor="serial",
        seed=0,
    )
    best = min(time_callable(EnsemFDet(config).fit, graph).seconds for _ in range(3))
    return {f"ensemble-batched@{ENSEMBLE_CASE['n_edges']}": best}


def measure(sizes: list[tuple[int, int, int]] | None = None) -> dict[str, float]:
    """Best-of-N peel seconds keyed by ``engine@n_edges``."""
    metric = LogWeightedDensity()
    timings: dict[str, float] = {}
    for engine in PeelEngine.ALL:
        for n_users, n_merchants, n_edges in sizes if sizes is not None else SIZES:
            graph = chung_lu_bipartite(n_users, n_merchants, n_edges, rng=0)
            weights = metric.edge_weights(graph)
            repeats = 1 if engine == PeelEngine.REFERENCE and n_edges >= 90_000 else 3
            best = min(
                time_callable(greedy_peel, graph, weights, engine=engine).seconds
                for _ in range(repeats)
            )
            timings[f"{engine}@{n_edges}"] = best
    timings.update(measure_ensemble())
    timings.update(serve_guard_timings(measure_serve()))
    # parity gate rides along: measure_scale raises if the sharded+mmap
    # vote table ever diverges from the wide resident fit
    timings.update(scale_guard_timings(measure_scale()))
    return timings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", default=DEFAULT_BASELINE, help="baseline JSON path")
    parser.add_argument("--update", action="store_true", help="rewrite the baseline")
    parser.add_argument("--threshold", type=float, default=2.0, help="max slowdown factor")
    parser.add_argument(
        "--fast",
        action="store_true",
        help="measure only the smaller sizes and compare just those baseline entries",
    )
    args = parser.parse_args(argv)

    if args.fast and args.update:
        print("--fast cannot rewrite the baseline; run --update without it", file=sys.stderr)
        return 2

    timings = measure(sizes=SIZES[:-1] if args.fast else None)

    if args.update:
        os.makedirs(os.path.dirname(args.baseline), exist_ok=True)
        payload = {
            "meta": {"cpu_count": os.cpu_count(), "native_kernel": native_available()},
            # serve-*/scale-* cases live in baselines/serve_load.json and
            # baselines/scale.json, rewritten by their own --update runs —
            # never duplicated here
            "timings": {
                case: value
                for case, value in timings.items()
                if not case.startswith(("serve-", "scale-"))
            },
        }
        with open(args.baseline, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"baseline written to {args.baseline}")
        return 0

    if not os.path.exists(args.baseline):
        print(f"no baseline at {args.baseline}; run with --update first", file=sys.stderr)
        return 2
    with open(args.baseline) as handle:
        payload = json.load(handle)
    baseline = payload["timings"]
    if os.path.exists(SERVE_BASELINE):
        with open(SERVE_BASELINE) as handle:
            serve_payload = json.load(handle)
        baseline.update(
            serve_guard_timings(
                {k: v for k, v in serve_payload.items() if k != "meta"}
            )
        )
    if os.path.exists(SCALE_BASELINE):
        with open(SCALE_BASELINE) as handle:
            scale_payload = json.load(handle)
        baseline.update(scale_payload.get("guard", {}))

    # a native-kernel baseline is meaningless against a python-fallback run
    # (and vice versa): only the reference engine is comparable then
    baseline_native = payload.get("meta", {}).get("native_kernel")
    if baseline_native is not None and baseline_native != native_available():
        baseline = {k: v for k, v in baseline.items() if k.startswith(PeelEngine.REFERENCE)}
        print(
            f"note: baseline native_kernel={baseline_native} but this host's is "
            f"{native_available()}; comparing reference-engine cases only"
        )

    if args.fast:
        baseline = {case: value for case, value in baseline.items() if case in timings}

    failures = []
    print(f"{'case':<20} {'baseline':>10} {'now':>10} {'ratio':>7}")
    for case, reference_seconds in sorted(baseline.items()):
        measured = timings.get(case)
        if measured is None:
            failures.append(f"{case}: missing from current measurement")
            continue
        ratio = measured / max(reference_seconds, 1e-9)
        flag = "" if ratio <= args.threshold else "  <-- REGRESSION"
        print(f"{case:<20} {reference_seconds * 1000:>8.1f}ms {measured * 1000:>8.1f}ms {ratio:>6.2f}x{flag}")
        if ratio > args.threshold:
            failures.append(
                f"{case}: {ratio:.2f}x of baseline exceeds the {args.threshold}x threshold"
            )

    if failures:
        print("\nperf regression guard FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nall cases within {args.threshold}x of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
