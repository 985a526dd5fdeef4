"""The repository benchmark: one workload per run, checked outputs, one JSON line.

::

    python3 perfbench/run.py --workload fit-jd --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # every workload, untraced
    python3 perfbench/run.py --selfcheck                        # fault-accounting check
    python3 perfbench/run.py --capacity --seed 1 --seconds 20   # serve-stream read capacity

Run from the repository root. ``--trace 0`` measures the end-to-end metrics
with no wrappers installed. ``--trace 1`` runs the workload twice in fresh
processes, for half the seconds each: untraced, then with the layer
wrappers of ``perfbench/spans.py``. It reports the per-layer metrics of the
traced half and the tracing overhead, the difference of the two halves'
median operation times. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the lines before it name
every metric with its unit and sample count, and carry the provenance
``meta``. A failed output check makes ``correct`` false and the exit code 1.

Only the standard library is imported here; the workload bodies run in
child processes (``perfbench/workloads.py``) with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("fit-jd", "fanout-1m", "serve-stream")
BUILD_DIR = Path(".perfbench_build")

E2E_UNITS = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "rss_mb": "MB",
    "success_rate": "fraction",
}
META_KEYS = (
    "nproc",
    "omp_threads",
    "native_loaded",
    "kernel",
    "backend",
    "transport",
    "python",
    "numpy",
    "git_sha",
)
#: first run in a checkout builds the kernel; later ones reuse it
PREPARE_TIMEOUT = 600
MEASURE_GRACE = 120


def _environment() -> dict:
    """Child environment: sources on the path, scratch inside the checkout."""
    native = BUILD_DIR / "native"
    tmp = BUILD_DIR / "tmp"
    native.mkdir(parents=True, exist_ok=True, mode=0o700)
    os.chmod(native, 0o700)
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env.pop("REPRO_FAULTS", None)  # only the self-check arms faults
    env["PYTHONPATH"] = os.pathsep.join([str(Path("src").resolve()), str(HERE)])
    env["REPRO_NATIVE_CACHE_DIR"] = str(native.resolve())
    env["TMPDIR"] = str(tmp.resolve())
    return env


def _child(args: list[str], env: dict, timeout: float) -> None:
    """Run one workloads.py step in its own session; never leave it behind.

    The step may start a server and pool workers of its own. However it
    ends, whatever is left of its session is killed and waited for, so no
    process outlives the run.
    """
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), *args],
        env=env,
        start_new_session=True,
    )
    try:
        code = proc.wait(timeout=timeout)
    finally:
        _end_session(proc)
    if code != 0:
        raise subprocess.CalledProcessError(code, proc.args)


def _end_session(proc: subprocess.Popen, grace: float = 10.0) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + grace
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def _measure(
    workload: str, seed: int, seconds: float, flags: list[str], run_dir: Path, env: dict
) -> dict:
    result_path = run_dir / "result.json"
    result_path.unlink(missing_ok=True)
    _child(
        ["measure", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--dir", str(run_dir), *flags],
        env,
        seconds + MEASURE_GRACE,
    )
    return json.loads(result_path.read_text())


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Prepare inputs, measure in a fresh process, and validate the result.

    A step that fails, times out or leaves no result makes an incorrect
    outcome, so the run still ends with its JSON line.
    """
    try:
        return _run_workload(workload, seed, seconds, trace)
    except (subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {workload} failed: {exc!r}", file=sys.stderr)
        return _validate({"checks": {"workload_ran": False}, "e2e": {}, "layers": {},
                          "attempted": 1, "errors": 1, "detail": {}}, trace)


def _run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = _environment()
    run_dir = BUILD_DIR / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        _child(
            ["prepare", "--workload", workload, "--seed", str(seed), "--dir", str(run_dir)],
            env,
            PREPARE_TIMEOUT,
        )
        if not trace:
            return _validate(_measure(workload, seed, seconds, [], run_dir, env), False)
        # setup_s is not reported here, so each half sets up once
        once = ["--setups", "1"]
        plain = _measure(workload, seed, seconds / 2, once, run_dir, env)
        traced = _measure(workload, seed, seconds / 2, ["--traced", *once], run_dir, env)
        layers = traced["layers"]
        overhead = traced["op_ms_p50"] - plain["op_ms_p50"]
        layers["trace.overhead_ms"] = overhead
        layers["trace.overhead_pct"] = 100.0 * overhead / plain["op_ms_p50"]
        traced["checks"].update({f"untraced.{k}": v for k, v in plain["checks"].items()})
        traced["attempted"] += plain["attempted"]
        traced["errors"] += plain["errors"]
        return _validate(traced, True)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _validate(result: dict, trace: bool) -> dict:
    """Turn a child's result into the reported one, failing any gap."""
    from spans import PER_LAYER_UNITS

    checks = dict(result["checks"])
    meta = result.get("meta") or {}
    checks["meta_complete"] = all(key in meta for key in META_KEYS)
    units = PER_LAYER_UNITS if trace else E2E_UNITS
    source = result["layers"] if trace else result["e2e"]
    metrics = {}
    for name, unit in units.items():
        value = source.get(name)
        ok = isinstance(value, (int, float)) and math.isfinite(value)
        if not trace:
            ok = ok and value > 0
        checks[f"metric.{name}"] = ok
        metrics[name] = {"value": float(value) if ok else 0.0, "unit": unit}
    return {
        "correct": all(checks.values()),
        "attempted": int(result["attempted"]),
        "failed": int(result["errors"]),
        "metrics": metrics,
        "checks": checks,
        "detail": result["detail"],
        "meta": meta,
    }


def report(workload: str, outcome: dict) -> None:
    """Named metrics with units, then meta and checks, one line each."""
    for name, (value, unit, count) in sorted(outcome["detail"].items()):
        print(f"# {workload} {name} = {value:.6g} {unit} (n={count})")
    for name, metric in outcome["metrics"].items():
        print(f"# {workload} {name} = {metric['value']:.6g} {metric['unit']}")
    failed = sorted(name for name, ok in outcome["checks"].items() if not ok)
    print(json.dumps({"workload": workload, "meta": outcome["meta"], "failed_checks": failed}))


def selfcheck() -> int:
    """Fault accounting: an armed member fault shows as a retry, votes unchanged."""
    env = _environment()
    run_dir = BUILD_DIR / f"selfcheck-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        _child(["selfcheck", "--dir", str(run_dir)], env, PREPARE_TIMEOUT)
        clean = json.loads((run_dir / "result.json").read_text())
        faulted_env = dict(env, REPRO_FAULTS="raise:point=member.detect,index=2")
        _child(["selfcheck", "--dir", str(run_dir)], faulted_env, PREPARE_TIMEOUT)
        faulted = json.loads((run_dir / "result.json").read_text())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    checks = {
        "clean_run_has_no_retry": clean["runner.retries"] == 0 and clean["errors"] == 0,
        "fault_shows_in_runner_retries": faulted["runner.retries"] >= 1,
        "fault_counted_as_error": faulted["errors"] >= 1,
        "no_member_lost": faulted["runner.failed_members"] == 0,
        "votes_unchanged_by_fault": faulted["fingerprint"] == clean["fingerprint"],
    }
    print(json.dumps({"clean": clean, "faulted": faulted, "checks": checks}))
    return 0 if all(checks.values()) else 1


def capacity(seed: int, seconds: float) -> int:
    """serve-stream's closed-loop read throughput with its ingest loop running."""
    env = _environment()
    run_dir = BUILD_DIR / f"capacity-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        _child(["prepare", "--workload", "serve-stream", "--seed", str(seed),
                "--dir", str(run_dir)], env, PREPARE_TIMEOUT)
        _child(["capacity", "--seed", str(seed), "--seconds", str(seconds),
                "--dir", str(run_dir)], env, seconds + MEASURE_GRACE)
        print((run_dir / "result.json").read_text())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--capacity", action="store_true")
    args = parser.parse_args(argv)

    if not (Path("src") / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    if args.selfcheck:
        return selfcheck()
    if args.capacity:
        return capacity(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required")
    sys.path.insert(0, str(HERE))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    outcomes = {}
    for name in names:
        outcomes[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(name, outcomes[name])
    if len(names) == 1:
        final = {k: outcomes[names[0]][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(o["correct"] for o in outcomes.values()),
            "attempted": sum(o["attempted"] for o in outcomes.values()),
            "failed": sum(o["failed"] for o in outcomes.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, outcome in outcomes.items()
                for metric, value in outcome["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
