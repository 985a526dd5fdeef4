"""Chaos harness: drive the watch/update loop under injected faults.

The harness runs the real ``ensemfdet watch`` CLI in subprocesses — the
only honest way to exercise ``crash`` faults, which SIGKILL the process
mid-operation — appending edge batches to a stream file between rounds,
with a :class:`~repro.faults.FaultPlan` armed through the ``REPRO_FAULTS``
environment variable. A round whose process dies (or exits nonzero) is
re-run **without** faults, emulating an operator restart after a crash;
state recovery then has to come entirely from the crash-safe snapshot
layer (atomic commit, rolling ``.bak``, consumed-row offsets).

The invariant the chaos suite pins down with this harness: for any plan of
worker kills, store-file map failures, mid-write crashes and snapshot byte
corruption, the final vote table is **bitwise identical** to the
fault-free run's, and the temp directory holds zero leaked
``repro_gs_spill_*`` directories afterwards.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..ensemble import IncrementalEnsemFDet, load_detection_state_with_recovery
from ..graph import BipartiteGraph, save_edge_list
from ..graph.store import SPILL_PREFIX
from .injection import ENV_VAR

__all__ = [
    "ChaosRound",
    "ChaosReport",
    "leaked_spills",
    "run_chaos_cycle",
    "vote_fingerprint",
]

def leaked_spills() -> list[str]:
    """Names of graph-store spill directories left in the temp directory."""
    return sorted(p.name for p in Path(tempfile.gettempdir()).glob(f"{SPILL_PREFIX}*"))


def vote_fingerprint(state_path: str | os.PathLike[str]) -> str:
    """Deterministic digest of a saved state's vote table.

    Rebuilds the live detector (recovering from ``.bak`` if needed) and
    hashes the exact ``label → votes`` multisets plus the graph size, so
    two states agree on the fingerprint iff their vote tables are
    bitwise identical.
    """
    state, _ = load_detection_state_with_recovery(state_path)
    detector = IncrementalEnsemFDet.from_state(state)
    table = detector.vote_table
    digest = hashlib.sha256()
    digest.update(f"n={table.n_samples};e={detector.graph.n_edges}".encode())
    for name, votes in (("u", table.user_votes), ("m", table.merchant_votes)):
        for label, count in sorted(votes.items()):
            digest.update(f";{name}{label}={count}".encode())
    return digest.hexdigest()


@dataclass(frozen=True)
class ChaosRound:
    """One watch round: edges appended to the stream, faults armed.

    ``faults`` is a ``REPRO_FAULTS`` plan string (empty = fault-free).
    ``edges`` is a sequence of ``(user, merchant)`` label pairs appended
    to the stream file before the round runs (empty for the cold fit).
    """

    edges: tuple[tuple[int, int], ...] = ()
    faults: str = ""


@dataclass
class ChaosReport:
    """What one chaos cycle did and where it converged."""

    fingerprint: str
    rounds: int
    restarts: int
    crashes: int
    leaked: list[str] = field(default_factory=list)
    logs: list[str] = field(default_factory=list)


def _cli_env(faults: str) -> dict[str, str]:
    env = dict(os.environ)
    src_root = Path(__file__).resolve().parents[2]
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(src_root), env.get("PYTHONPATH")) if part
    )
    if faults:
        env[ENV_VAR] = faults
    else:
        env.pop(ENV_VAR, None)
    return env


def _run_watch(
    stream: Path,
    state: Path,
    faults: str,
    watch_flags: tuple[str, ...],
    iterations: int,
    timeout: float,
) -> subprocess.CompletedProcess:
    argv = [
        sys.executable,
        "-m",
        "repro.cli",
        "watch",
        str(stream),
        "--state",
        str(state),
        "--interval",
        "0",
        "--iterations",
        str(iterations),
        *watch_flags,
    ]
    return subprocess.run(
        argv,
        env=_cli_env(faults),
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def run_chaos_cycle(
    workdir: str | os.PathLike[str],
    graph: BipartiteGraph,
    rounds: list[ChaosRound],
    watch_flags: tuple[str, ...] = (),
    max_restarts: int = 3,
    timeout: float = 120.0,
) -> ChaosReport:
    """Run a full watch lifecycle under the given per-round fault plans.

    Writes ``graph`` as the initial stream file, cold-fits, then replays
    every :class:`ChaosRound`: append its edges, run one watch iteration
    with its fault plan armed. A round that dies (SIGKILL from a ``crash``
    fault, or any nonzero exit) is re-run fault-free — the operator
    restart — up to ``max_restarts`` times; recovery must come from the
    snapshot layer alone. Returns the final vote-table fingerprint plus
    crash/restart counts and the post-run spill-directory leak scan.

    Run the same cycle with all-empty fault plans to obtain the reference
    fingerprint the chaos run must match bitwise.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    stream = workdir / "stream.tsv"
    state = workdir / "state.npz"
    save_edge_list(graph, stream)

    report = ChaosReport(fingerprint="", rounds=0, restarts=0, crashes=0)

    def _step(faults: str, iterations: int) -> None:
        result = _run_watch(stream, state, faults, watch_flags, iterations, timeout)
        report.logs.append(
            f"rc={result.returncode} faults={faults!r}\n{result.stdout}{result.stderr}"
        )
        if result.returncode == 0:
            return
        if result.returncode < 0:
            report.crashes += 1
        for _ in range(max_restarts):
            report.restarts += 1
            retry = _run_watch(stream, state, "", watch_flags, iterations, timeout)
            report.logs.append(
                f"restart rc={retry.returncode}\n{retry.stdout}{retry.stderr}"
            )
            if retry.returncode == 0:
                return
            if retry.returncode < 0:  # pragma: no cover - fault-free run died
                report.crashes += 1
        raise AssertionError(
            f"chaos round did not recover after {max_restarts} fault-free "
            f"restarts; last output:\n{report.logs[-1]}"
        )

    for index, chaos_round in enumerate(rounds):
        if chaos_round.edges:
            with stream.open("a", encoding="utf-8") as fh:
                for user, merchant in chaos_round.edges:
                    fh.write(f"{int(user)}\t{int(merchant)}\n")
        # round 0 is the cold fit (no update iteration needed)
        _step(chaos_round.faults, iterations=0 if index == 0 else 1)
        report.rounds += 1

    report.fingerprint = vote_fingerprint(state)
    report.leaked = leaked_spills()
    return report


def delta_batches(
    n_users: int, n_merchants: int, sizes: list[int], seed: int
) -> list[tuple[tuple[int, int], ...]]:
    """Deterministic edge batches for chaos rounds (labels stay in range)."""
    rng = np.random.default_rng(seed)
    batches = []
    for size in sizes:
        users = rng.integers(0, n_users, size)
        merchants = rng.integers(0, n_merchants, size)
        batches.append(tuple(zip(users.tolist(), merchants.tolist())))
    return batches
