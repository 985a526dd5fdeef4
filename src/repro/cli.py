"""``ensemfdet`` command-line interface.

Subcommands::

    ensemfdet detect <edges.tsv> [--detector SPEC] [--ratio S] [--samples N] [...]
    ensemfdet detectors [--list]
    ensemfdet watch <edges.tsv> --state <state.npz> [--window N] [--horizon H] [...]
    ensemfdet serve <edges.tsv> --state <state.npz> [--host H] [--port P] [...]
    ensemfdet update [delta.tsv] --state <state.npz> [--remove removals.tsv] [...]
    ensemfdet dataset <outdir> [--index I] [--scale X] [--seed K]
    ensemfdet stats <edges.tsv>
    ensemfdet experiments [ids...] [--scale ...] [--outdir ...]
    ensemfdet scenario [--list] [--scenarios a,b] [--detectors SPEC,...] [...]

``detect`` runs the ensemble by default; ``--detector`` accepts any
registry spec (``fraudar:n_blocks=8``, ``spoken``, ``degree:weighted=1``,
...) and prints that detector's suspiciousness ranking instead.
``detectors`` lists the registry. ``watch`` keeps warm detection state in
a ``.npz`` archive and tails a growing edge-list file, re-detecting only
the ensemble members a new batch of edges invalidates; ``--window N`` /
``--horizon H`` bound the cold fit's window (old batches expire instead
of accumulating forever). ``update`` applies one explicit delta file
and/or a ``--remove`` deletion file to the same state. Both
print the refreshed detection in the ``detect`` format. ``serve`` exposes
the same warm state as a long-running HTTP scoring service (ingest edge
deltas over ``POST /ingest``, read scores from ``GET /score``/``/top``/
``/blocks`` without blocking behind a re-fit; see :mod:`repro.serve`). ``scenario``
sweeps the adversarial-attack robustness grid (detector × attack shape ×
intensity) over any set of registry specs; ``scenario --drift`` replays
the temporal scenarios batch-by-batch against a detector whose window has
a bound and one whose window has none, and reports detection latency.
Artifacts go to ``--outdir``.
"""

from __future__ import annotations

import argparse
import dataclasses
import signal
import sys
import threading
import time
from collections.abc import Iterable, Iterator
from contextlib import closing
from itertools import islice
from pathlib import Path

import numpy as np

from .datasets import make_jd_dataset, save_dataset
from .detectors import (
    DETECTOR_NAMES,
    Detection,
    DetectorContext,
    available_detectors,
    detector_info,
    make_detector,
    split_detector_specs,
)
from .ensemble import (
    DetectionResult,
    EnsemFDet,
    EnsemFDetConfig,
    IncrementalEnsemFDet,
    state_backup_path,
)
from .experiments.runner import main as experiments_main
from .fdet import FdetConfig, PeelEngine
from .graph import (
    EdgeBatch,
    GraphAccumulator,
    WindowConfig,
    describe,
    iter_edge_batches,
    load_edge_list,
)
from .graph.io import _edge_batches, _iter_rows, _parse_header, _weighted_flag
from .parallel import ExecutorMode, FaultTolerance
from .sampling import RandomEdgeSampler, StableEdgeSampler
from .scenarios import (
    SCENARIO_NAMES,
    DriftGridConfig,
    ScenarioGridConfig,
    run_drift_grid,
    run_grid,
    scenario_descriptions,
)
from .scenarios.drift import TEMPORAL_SCENARIOS

__all__ = ["build_parser", "main"]


def _default_threshold(threshold: int | None, n_samples: int) -> int:
    """Resolve the voting threshold, defaulting to ``N // 4``.

    Only ``None`` triggers the default — an explicit ``--threshold 0`` must
    reach the aggregator (which rejects it) instead of being silently
    replaced.
    """
    if threshold is None:
        return max(1, n_samples // 4)
    return threshold


def _print_detection(detection: DetectionResult, header: str) -> None:
    print(header)
    print(f"# detected {detection.n_users} users, {detection.n_merchants} merchants")
    for label in detection.user_labels.tolist():
        print(f"user\t{label}")
    for label in detection.merchant_labels.tolist():
        print(f"merchant\t{label}")


def _print_ranking(detection: Detection, top: int) -> None:
    """Print a registry detector's suspiciousness ranking."""
    ranking = detection.top_users(top)
    print(
        f"# {detection.spec}: fitted {detection.n_users} users in "
        f"{detection.seconds:.3f}s"
    )
    if "sampler" in detection.meta:
        # the registry's ensemble default (stable-edge) differs from the
        # legacy 'detect' path (random-edge); always show which one ran
        print(f"# sampler: {detection.meta['sampler']}")
    print(f"# top {ranking.size} users by suspiciousness (score after label)")
    score_of = dict(
        zip(detection.user_labels.tolist(), detection.user_scores.tolist())
    )
    for label in ranking.tolist():
        print(f"user\t{label}\t{score_of.get(label, 0.0):g}")


def _cmd_detect(args: argparse.Namespace) -> int:
    if args.detector is not None and args.threshold is not None:
        # never silently drop an explicit flag (same contract the legacy
        # path honours for --threshold 0); checked before any file I/O
        print(
            "--threshold has no effect with --detector (the registry path "
            "prints a score ranking); drop one of the two flags",
            file=sys.stderr,
        )
        return 2
    graph = load_edge_list(args.edges)
    if args.detector is not None:
        context = DetectorContext(
            seed=args.seed,
            n_samples=args.samples,
            sample_ratio=args.ratio,
            max_blocks=args.max_blocks,
            engine=args.engine,
            executor=args.executor,
        )
        detection = make_detector(args.detector, context).fit(graph)
        _print_ranking(detection, args.top)
        return 0
    config = EnsemFDetConfig(
        sampler=RandomEdgeSampler(args.ratio),
        n_samples=args.samples,
        fdet=FdetConfig(max_blocks=args.max_blocks, engine=args.engine),
        executor=args.executor,
        seed=args.seed,
    )
    result = EnsemFDet(config).fit(graph)
    threshold = _default_threshold(args.threshold, args.samples)
    detection = result.detect(threshold)
    _print_detection(
        detection, f"# EnsemFDet: S={args.ratio} N={args.samples} T={threshold}"
    )
    return 0


def _headerless_batches(path: str) -> Iterator[EdgeBatch]:
    """Parse a bare ``u<TAB>v[<TAB>w]`` file (no ``# bipartite`` header).

    Weightedness is decided by the first data row's column count; row
    parsing is shared with the standard loaders (``_iter_rows``), so
    malformed rows fail with the same ``GraphError`` + line context.
    """
    weighted = False
    with open(path, "rb") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith(b"#"):
                continue
            weighted = len(line.split(b"\t")) >= 3
            break
    with open(path, "rb") as fh:
        rows = _iter_rows(fh, Path(path), weighted, start_line=1)
        yield from _edge_batches(rows, weighted)


def _stack(batches: Iterable[EdgeBatch]) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The rows of ``batches`` as one array per column (weights only if they carry any)."""
    users: list[np.ndarray] = []
    merchants: list[np.ndarray] = []
    weights: list[np.ndarray] = []
    for batch in batches:
        users.append(batch.users)
        merchants.append(batch.merchants)
        if batch.weights is not None:
            weights.append(batch.weights)
    if not users:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), None
    return (
        np.concatenate(users),
        np.concatenate(merchants),
        np.concatenate(weights) if weights else None,
    )


def _read_rows(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Every data row of an ``update`` delta (or removal) file.

    Streams in chunks (constant memory beyond the returned rows) and never
    trusts the header's ``edges=`` count. A bare ``u<TAB>v[<TAB>w]`` file
    (no ``# bipartite`` header) is accepted too, as produced by ad-hoc
    delta exports.
    """
    with open(path, "rb") as fh:
        first = fh.readline()
    if not first.startswith(b"# bipartite"):
        return _stack(_headerless_batches(path))
    return _stack(iter_edge_batches(path, strict=False))


class _SourceTail:
    """The source file of ``watch`` and ``serve``, read on from where the
    last read stopped.

    ``offset`` is the byte just past the last line read. Each :meth:`read`
    seeks there and parses, in chunks, only the lines after it that a
    newline ends: a poll costs its own delta, and a row cut mid-write
    waits for its newline instead of being ingested as the wrong edge. On
    resume, the first read passes over the rows the saved state holds.
    """

    def __init__(self, path: str) -> None:
        self.path = Path(path)
        with self.path.open("rb") as fh:
            self.weighted = _weighted_flag(_parse_header(fh.readline(), self.path), self.path)
        self.offset = 0
        self.line_no = 0  # lines before offset
        self.rows = 0  # data rows before offset

    def _lines(self) -> Iterator[bytes]:
        """The newline-ended lines after ``offset``, which moves past each one."""
        with self.path.open("rb") as fh:
            fh.seek(self.offset)
            for line in fh:
                if not line.endswith(b"\n"):
                    return
                self.offset += len(line)
                self.line_no += 1
                yield line

    def read(self, consumed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """The complete data rows after the first ``consumed`` of the file."""
        with closing(self._lines()) as lines:
            rows = _iter_rows(lines, self.path, self.weighted, start_line=self.line_no + 1)
            self.rows += sum(1 for _ in islice(rows, max(0, consumed - self.rows)))
            users, merchants, weights = _stack(_edge_batches(rows, self.weighted))
        self.rows += users.size
        return users, merchants, weights


def _state_exists(state_path: Path) -> bool:
    """True when a snapshot *or* its rolling backup is on disk.

    A crash between backup rotation and commit can leave only the ``.bak``
    behind — that is still resumable state, not a cold start.
    """
    return state_path.exists() or state_backup_path(state_path).exists()


def _state_dir_missing(state_path: Path) -> bool:
    """True, after one line on stderr, when the state's directory does not exist.

    ``watch`` and ``serve`` check it before they read the source: a cold
    fit would otherwise run in full and then fail its first commit.
    """
    if state_path.parent.is_dir():
        return False
    print(
        f"cannot keep detection state at {state_path}: no directory {state_path.parent}",
        file=sys.stderr,
    )
    return True


def _load_state(state_path: Path) -> IncrementalEnsemFDet:
    """Load saved state, auto-recovering from the ``.bak`` snapshot."""
    detector, recovered_from = IncrementalEnsemFDet.load_with_recovery(state_path)
    if recovered_from is not None:
        print(
            f"# warning: {state_path} was corrupt or missing; recovered from "
            f"{recovered_from} (changes after that snapshot will be re-applied "
            "from the source file)",
            file=sys.stderr,
        )
    return detector


def _report_degradation(report) -> None:
    """Warn on stderr when an update left members with stale votes."""
    if report.failed_members:
        kinds = ", ".join(
            f"member {f.index}: {f.kind} after {f.attempts} attempt(s)"
            for f in report.failed_members
        )
        print(f"# warning: degraded update — {kinds}", file=sys.stderr)
    if report.stale_members:
        print(
            f"# warning: {len(report.stale_members)} member(s) carry stale "
            f"votes: {list(report.stale_members)}",
            file=sys.stderr,
        )


def _window_config(args: argparse.Namespace) -> WindowConfig:
    """Build the window config from ``--window`` / ``--horizon`` (neither: no bound)."""
    return WindowConfig(max_batches=args.window, horizon=args.horizon)


def _describe_window(detector: IncrementalEnsemFDet) -> str:
    window = detector.window_config
    if not window.bounded:
        return "window with no bound"
    parts = []
    if window.max_batches is not None:
        parts.append(f"last {window.max_batches} batches")
    if window.horizon is not None:
        parts.append(f"horizon {window.horizon:g}")
    return f"rolling window ({', '.join(parts)})"


def _bootstrap_state(
    args: argparse.Namespace, state_path: Path, source: _SourceTail
) -> tuple[IncrementalEnsemFDet, int]:
    """Load saved state or cold-fit from the edge file (watch/serve shared).

    A cold fit starts from the complete rows of ``source``: a last row
    that no newline ends yet is left for a later read. Returns the warm
    detector and the number of source-file rows already folded into it
    (the resume offset for incremental polling).
    """
    if _state_exists(state_path):
        detector = _load_state(state_path)
        # the state may hold more edges than this file contributed (e.g.
        # deltas applied via 'ensemfdet update'), so the file offset is
        # tracked separately in the state's meta, not inferred from |E|
        consumed = int(detector.meta.get("watch_rows", detector.graph.n_edges))
        sampler = detector.config.sampler
        print(
            f"# loaded state from {state_path}: {detector.graph.n_edges} live edges, "
            f"N={detector.config.n_samples} S={sampler.ratio} stripe={sampler.stripe} "
            f"seed={detector.config.seed} {_describe_window(detector)} "
            f"({consumed} rows of {args.edges} consumed)"
        )
        print(
            "# note: ensemble/sampling/window flags on the command line are ignored — "
            "the stored configuration governs; delete the state file to refit"
        )
        return detector, consumed
    users, merchants, weights = source.read(0)
    accumulator = GraphAccumulator()
    accumulator.append(users, merchants, weights)
    graph = accumulator.graph()
    config = EnsemFDetConfig(
        sampler=StableEdgeSampler(args.ratio, stripe=args.stripe),
        n_samples=args.samples,
        fdet=FdetConfig(max_blocks=args.max_blocks, engine=args.engine),
        executor=args.executor,
        seed=args.seed,
        tolerance=FaultTolerance(
            member_timeout=args.member_timeout,
            max_retries=args.max_retries,
            min_quorum=args.min_quorum,
        ),
    )
    window = _window_config(args)
    detector = IncrementalEnsemFDet(config, window=window)
    # horizon windows expire by clock; stamp batch 0 with real time
    detector.fit(graph, timestamp=time.time() if window.horizon is not None else 0.0)
    consumed = graph.n_edges
    detector.meta["watch_rows"] = consumed
    detector.save(state_path)
    print(
        f"# cold fit on {graph.n_edges} edges ({_describe_window(detector)}); "
        f"state saved to {state_path}"
    )
    return detector, consumed


class _ShutdownGuard:
    """Turn SIGINT/SIGTERM into a flag instead of a mid-commit exception.

    The ``watch`` poll loop used to sit in a bare ``time.sleep`` — a
    SIGINT there raised ``KeyboardInterrupt`` (and a SIGTERM killed the
    process outright) anywhere between an update and its state commit,
    losing the delta. The guard installs handlers that only set an event;
    the loop finishes its current round, commits state, and exits 0.

    Handlers can only be installed from the main thread (``signal``'s
    rule); elsewhere — e.g. in-process tests driving ``main()`` from a
    worker thread — the guard degrades to a plain never-set flag.
    Previous handlers are restored on exit so embedding callers keep
    their own signal behaviour.
    """

    def __init__(self) -> None:
        self._stop = threading.Event()
        self._previous: dict[int, object] = {}

    def __enter__(self) -> "_ShutdownGuard":
        if threading.current_thread() is threading.main_thread():
            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    self._previous[sig] = signal.signal(sig, self._handle)
                except (ValueError, OSError):  # pragma: no cover - exotic hosts
                    pass
        return self

    def __exit__(self, *exc_info) -> None:
        for sig, previous in self._previous.items():
            signal.signal(sig, previous)
        self._previous.clear()

    def _handle(self, signum, frame) -> None:
        self._stop.set()

    @property
    def stop_requested(self) -> bool:
        return self._stop.is_set()

    def wait(self, seconds: float) -> bool:
        """Sleep up to ``seconds``; ``True`` when shutdown was requested."""
        return self._stop.wait(seconds)


def _cmd_watch(args: argparse.Namespace) -> int:
    state_path = Path(args.state)
    if _state_dir_missing(state_path):
        return 2
    # the guard covers the bootstrap too: a signal during the cold fit
    # still drains into a clean commit instead of a traceback
    with _ShutdownGuard() as guard:
        source = _SourceTail(args.edges)
        detector, consumed = _bootstrap_state(args, state_path, source)

        threshold = _default_threshold(args.threshold, detector.config.n_samples)
        _print_detection(detector.detect(threshold), f"# EnsemFDet[warm] T={threshold}")

        rounds = 0
        while not guard.stop_requested and (
            args.iterations < 0 or rounds < args.iterations
        ):
            rounds += 1
            if args.interval > 0 and guard.wait(args.interval):
                break
            if guard.stop_requested:
                break
            users, merchants, weights = source.read(consumed)
            if not users.size:
                continue
            # horizon windows expire by clock; the others tick in ordinal
            # time (the accumulator's default)
            clock = time.time() if detector.window_config.horizon is not None else None
            report = detector.update(users, merchants, weights, timestamp=clock)
            _report_degradation(report)
            consumed += report.n_new_edges
            detector.meta["watch_rows"] = consumed
            detector.save(state_path)
            print(
                f"# update: +{report.n_new_edges} edges, expired "
                f"{report.n_expired_edges}, refreshed "
                f"{report.n_refreshed}/{report.n_samples} samples in "
                f"{report.total_seconds:.3f}s"
            )
            _print_detection(
                detector.detect(threshold), f"# EnsemFDet[warm] T={threshold}"
            )
        if guard.stop_requested:
            detector.meta["watch_rows"] = consumed
            detector.save(state_path)
            print(f"# interrupted: state committed to {state_path}", file=sys.stderr)
    return 0


async def _serve_until_signal(server, ready_message: str) -> None:
    """Run the scoring server until SIGINT/SIGTERM (or forever without them)."""
    import asyncio

    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    installed = []
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
            installed.append(sig)
        except (NotImplementedError, RuntimeError):  # pragma: no cover - non-main thread
            pass
    try:
        await server.start()
        # the bound port on stdout is the readiness handshake for
        # subprocess tests and the serve-smoke CI job (--port 0 support)
        print(ready_message.format(host=server.host, port=server.port), flush=True)
        await stop.wait()
        await server.stop()
    finally:
        for sig in installed:
            loop.remove_signal_handler(sig)


def _cmd_serve(args: argparse.Namespace) -> int:
    # serve alone runs an event loop: the other commands never load asyncio
    import asyncio

    from .serve import DetectionService, ScoringServer

    state_path = Path(args.state)
    if _state_dir_missing(state_path):
        return 2
    detector, consumed = _bootstrap_state(args, state_path, _SourceTail(args.edges))
    detector.meta["watch_rows"] = consumed
    threshold = _default_threshold(args.threshold, detector.config.n_samples)
    service = DetectionService(
        detector, state_path=state_path, default_threshold=threshold
    )
    server = ScoringServer(service, host=args.host, port=args.port)
    try:
        asyncio.run(
            _serve_until_signal(server, "# serving on http://{host}:{port}")
        )
    finally:
        service.close(save=not args.no_save_on_exit)
    print(
        f"# shutdown: state {'committed to ' + str(state_path) if not args.no_save_on_exit else 'not saved (--no-save-on-exit)'}",
        file=sys.stderr,
    )
    return 0


def _cmd_update(args: argparse.Namespace) -> int:
    state_path = Path(args.state)
    if not _state_exists(state_path):
        print(f"no detection state at {state_path}; run 'ensemfdet watch' first", file=sys.stderr)
        return 2
    if args.delta is None and args.remove is None:
        print("nothing to apply: give a delta file and/or --remove", file=sys.stderr)
        return 2
    detector = _load_state(state_path)
    if args.delta is not None:
        users, merchants, weights = _read_rows(args.delta)
    else:
        users = merchants = weights = None
    remove_users = remove_merchants = None
    if args.remove is not None:
        remove_users, remove_merchants, _ = _read_rows(args.remove)
    report = detector.update(
        users,
        merchants,
        weights,
        remove_users=remove_users,
        remove_merchants=remove_merchants,
        timestamp=args.timestamp,
    )
    _report_degradation(report)
    detector.save(state_path)
    threshold = _default_threshold(args.threshold, detector.config.n_samples)
    print(
        f"# update: +{report.n_new_edges} edges, -{report.n_removed_edges} retracted, "
        f"{report.n_expired_edges} expired, refreshed "
        f"{report.n_refreshed}/{report.n_samples} samples in {report.total_seconds:.3f}s"
    )
    _print_detection(detector.detect(threshold), f"# EnsemFDet[warm] T={threshold}")
    return 0


def _cmd_dataset(args: argparse.Namespace) -> int:
    dataset = make_jd_dataset(args.index, scale=args.scale, seed=args.seed)
    save_dataset(dataset, args.outdir)
    print(
        f"wrote {dataset.name} to {args.outdir}: "
        f"{dataset.graph.n_users} users, {dataset.graph.n_merchants} merchants, "
        f"{dataset.graph.n_edges} edges, {dataset.n_blacklisted} blacklisted"
    )
    return 0


def _parse_csv(raw: str, cast) -> tuple:
    """Split a ``--flag a,b,c`` value into a tuple of ``cast``ed items."""
    return tuple(cast(item.strip()) for item in raw.split(",") if item.strip())


def _cmd_detectors(args: argparse.Namespace) -> int:
    """List the detector registry: spec parameters and capabilities."""
    # available_detectors(), not the frozen DETECTOR_NAMES tuple, so
    # downstream register_detector() additions show up here too
    for name in available_detectors():
        info = detector_info(name)
        params = ", ".join(
            spec_field.name for spec_field in dataclasses.fields(info.spec_cls)
        )
        flags = []
        if info.streaming:
            flags.append("streaming")
        if info.parity:
            flags.append(f"parity={info.parity}")
        print(
            f"{name}\t{info.description}\n"
            f"\tparams: {params or '(none)'}\n"
            f"\tcapabilities: {', '.join(flags) or '(none)'}"
        )
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    if args.list:
        for name, description in scenario_descriptions().items():
            print(f"{name}\t{description}")
        return 0
    if args.drift:
        return _run_drift(args)
    scenarios = (
        _parse_csv(args.scenarios, str) if args.scenarios else SCENARIO_NAMES
    )
    config = ScenarioGridConfig(
        scenarios=scenarios,
        intensities=_parse_csv(args.intensities or "0.5,1.0,2.0", float),
        detectors=tuple(split_detector_specs(args.detectors)),
        scale=args.scale,
        seed=args.seed,
        n_samples=args.samples,
        sample_ratio=args.ratio,
        stripe=args.stripe,
        max_blocks=args.max_blocks,
        engine=args.engine,
        executor=args.executor,
        precision_k=args.k,
    )
    result = run_grid(config, outdir=args.outdir)
    print(result.render(max_rows=args.max_rows))
    if args.outdir is not None:
        print(f"# artifacts written to {args.outdir}/scenario_grid.{{json,csv}}")
    return 0


def _run_drift(args: argparse.Namespace) -> int:
    """``scenario --drift``: the temporal latency/decay grid."""
    intensities = _parse_csv(args.intensities, float) if args.intensities else (1.0,)
    if len(intensities) != 1:
        print(
            "--drift replays one intensity per run; pass a single value "
            f"to --intensities, got {list(intensities)}",
            file=sys.stderr,
        )
        return 2
    config = DriftGridConfig(
        scenarios=(
            _parse_csv(args.scenarios, str) if args.scenarios else TEMPORAL_SCENARIOS
        ),
        window_batches=args.window,
        intensity=intensities[0],
        scale=args.scale,
        seed=args.seed,
        n_samples=args.samples,
        sample_ratio=args.ratio,
        stripe=args.stripe,
        max_blocks=args.max_blocks,
        engine=args.engine,
        executor=args.executor,
        f1_target=args.f1_target,
    )
    result = run_drift_grid(config, outdir=args.outdir)
    print(result.render(max_rows=args.max_rows))
    if args.outdir is not None:
        print(f"# artifacts written to {args.outdir}/drift_grid.{{json,csv}}")
    return 0


def _add_executor_flag(command: argparse.ArgumentParser) -> None:
    """``--executor``: the in-process run unless a killable pool is asked for."""
    command.add_argument(
        "--executor",
        choices=ExecutorMode.ALL,
        default=ExecutorMode.SERIAL,
        help="'serial' runs every member in this process, one OpenMP-wide "
        "kernel call; 'process' runs them on a process pool whose hung or "
        "crashing members are killed and retried",
    )


def _cmd_stats(args: argparse.Namespace) -> int:
    graph = load_edge_list(args.edges)
    for key, value in describe(graph).as_row().items():
        print(f"{key}\t{value}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``ensemfdet`` argument parser, every subcommand included."""
    parser = argparse.ArgumentParser(prog="ensemfdet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    detect = sub.add_parser("detect", help="run a detector on an edge-list TSV")
    detect.add_argument("edges")
    detect.add_argument(
        "--detector",
        default=None,
        help="registry spec to run instead of the default ensemble, e.g. "
        "'fraudar:n_blocks=8' or 'degree:weighted=1' (see 'ensemfdet detectors'); "
        "note the registry's ensemble defaults to the stable-edge sampler — "
        "pass 'ensemfdet:sampler=res' for the legacy random-edge behaviour",
    )
    detect.add_argument(
        "--top",
        type=int,
        default=50,
        help="ranked users printed with --detector",
    )
    detect.add_argument("--ratio", type=float, default=0.2, help="sample ratio S")
    detect.add_argument("--samples", type=int, default=40, help="ensemble size N")
    detect.add_argument("--threshold", type=int, default=None, help="voting threshold T")
    detect.add_argument("--max-blocks", type=int, default=15)
    detect.add_argument(
        "--engine",
        choices=PeelEngine.ALL,
        default=PeelEngine.DEFAULT,
        help="peeling backend: 'fast' (native kernel; runs 'reference' on hosts "
        "without a C compiler) or 'reference' (pure Python)",
    )
    _add_executor_flag(detect)
    detect.add_argument("--seed", type=int, default=0)
    detect.set_defaults(func=_cmd_detect)

    detectors = sub.add_parser(
        "detectors", help="list the detector registry (specs, params, capabilities)"
    )
    detectors.add_argument(
        "--list",
        action="store_true",
        help="accepted for symmetry with 'scenario --list'; listing is this "
        "subcommand's only mode",
    )
    detectors.set_defaults(func=_cmd_detectors)

    def _add_state_fit_flags(command: argparse.ArgumentParser) -> None:
        """The flags shared by every warm-state front end (watch, serve)."""
        command.add_argument("edges", help="edge-list TSV the state is fitted from")
        command.add_argument(
            "--state", required=True, help="detection-state .npz (created if missing)"
        )
        command.add_argument("--ratio", type=float, default=0.1, help="sample ratio S")
        command.add_argument("--samples", type=int, default=40, help="ensemble size N")
        command.add_argument(
            "--threshold", type=int, default=None, help="voting threshold T"
        )
        command.add_argument(
            "--stripe", type=int, default=1024, help="edges per sampling stripe"
        )
        command.add_argument("--max-blocks", type=int, default=15)
        command.add_argument(
            "--engine",
            choices=PeelEngine.ALL,
            default=PeelEngine.DEFAULT,
            help="peeling backend",
        )
        _add_executor_flag(command)
        command.add_argument("--seed", type=int, default=0)
        command.add_argument(
            "--member-timeout",
            type=float,
            default=None,
            help="wall-clock budget per ensemble member in seconds "
            "(cold fit only; stored in the state)",
        )
        command.add_argument(
            "--max-retries",
            type=int,
            default=2,
            help="retry rounds for failed ensemble members (cold fit only)",
        )
        command.add_argument(
            "--min-quorum",
            type=float,
            default=0.5,
            help="minimum surviving ensemble fraction before a fit/update "
            "raises instead of degrading (cold fit only)",
        )
        command.add_argument(
            "--window",
            type=int,
            default=None,
            metavar="N",
            help="keep only the last N appended batches live; older edges "
            "expire and their votes are forgotten (cold fit only; stored in "
            "the state and honoured by every later update)",
        )
        command.add_argument(
            "--horizon",
            type=float,
            default=None,
            metavar="H",
            help="expire edges whose batch timestamp falls more than H behind "
            "the newest batch (wall-clock seconds here; combinable with "
            "--window, cold fit only)",
        )

    watch = sub.add_parser(
        "watch",
        help="keep warm detection state and incrementally re-detect as the edge file grows",
    )
    _add_state_fit_flags(watch)
    watch.add_argument(
        "--interval", type=float, default=2.0, help="seconds between polls of the edge file"
    )
    watch.add_argument(
        "--iterations",
        type=int,
        default=-1,
        help="poll rounds before exiting (-1 = watch forever, 0 = fit/print once)",
    )
    watch.set_defaults(func=_cmd_watch)

    serve = sub.add_parser(
        "serve",
        help="serve the warm detection state over HTTP (scores, ingest, snapshots)",
        description="Long-running scoring service over the same DetectionState "
        "the watch/update commands maintain. Edge deltas arrive as POST "
        "/ingest requests (JSON, with optional deletions and a batch "
        "timestamp); GET /score/{user}, /top, /blocks, /health and /stats "
        "answer from an immutable snapshot of the vote table, so reads "
        "never block behind a re-fit; POST /snapshot persists the state "
        "through the crash-safe commit path. SIGINT/SIGTERM drain the "
        "update queue, commit state, and exit 0.",
    )
    _add_state_fit_flags(serve)
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port",
        type=int,
        default=8787,
        help="TCP port (0 = ephemeral; the bound port is printed on stdout)",
    )
    serve.add_argument(
        "--no-save-on-exit",
        action="store_true",
        help="skip the final state commit on shutdown",
    )
    serve.set_defaults(func=_cmd_serve)

    update = sub.add_parser(
        "update", help="apply one edge-delta file to saved detection state"
    )
    update.add_argument(
        "delta",
        nargs="?",
        default=None,
        help="TSV of new edges (with or without the # bipartite header); "
        "optional when --remove is given",
    )
    update.add_argument("--state", required=True, help="detection-state .npz from 'watch'")
    update.add_argument("--threshold", type=int, default=None, help="voting threshold T")
    update.add_argument(
        "--remove",
        default=None,
        metavar="TSV",
        help="deletion delta: each (user, merchant) row retracts that "
        "pair's oldest live edge",
    )
    update.add_argument(
        "--timestamp",
        type=float,
        default=None,
        help="batch timestamp for horizon windows (default: previous "
        "batch's timestamp + 1)",
    )
    update.set_defaults(func=_cmd_update)

    dataset = sub.add_parser("dataset", help="generate and save a JD-like dataset")
    dataset.add_argument("outdir")
    dataset.add_argument("--index", type=int, choices=(1, 2, 3), default=1)
    dataset.add_argument("--scale", type=float, default=0.3)
    dataset.add_argument("--seed", type=int, default=0)
    dataset.set_defaults(func=_cmd_dataset)

    stats = sub.add_parser("stats", help="print statistics of an edge-list TSV")
    stats.add_argument("edges")
    stats.set_defaults(func=_cmd_stats)

    scenario = sub.add_parser(
        "scenario",
        help="sweep the adversarial-scenario robustness grid",
        description="Evaluate detectors against parameterized attack shapes "
        "(camouflage, hijacked accounts, staged waves, spray, skewed targets) "
        "across an intensity sweep; staged scenarios replay through the "
        "incremental/streaming path batch by batch.",
    )
    scenario.add_argument(
        "--list", action="store_true", help="list registered scenarios and exit"
    )
    scenario.add_argument(
        "--drift",
        action="store_true",
        help="run the temporal drift grid instead: replay each scenario "
        "batch by batch through detectors with and without a window bound, "
        "reporting detection latency (batches until F1 reaches the "
        "target) and post-cleanup decay",
    )
    scenario.add_argument(
        "--scenarios",
        default=None,
        help="comma-separated scenario names (default: all registered; "
        f"with --drift: {','.join(TEMPORAL_SCENARIOS)})",
    )
    scenario.add_argument(
        "--intensities",
        default=None,
        help="comma-separated attack-strength multipliers (default "
        "0.5,1.0,2.0; --drift takes exactly one, default 1.0)",
    )
    scenario.add_argument(
        "--window",
        type=int,
        default=12,
        metavar="N",
        help="rolling-window size in batches for the --drift windowed rows",
    )
    scenario.add_argument(
        "--f1-target",
        type=float,
        default=0.6,
        help="best-F1 level that counts as 'detected' for --drift latency",
    )
    scenario.add_argument(
        "--detectors",
        default="ensemfdet,incremental",
        help="comma-separated detector registry specs, params allowed "
        f"(e.g. 'ensemfdet,fraudar:n_blocks=8'; available: {', '.join(DETECTOR_NAMES)})",
    )
    scenario.add_argument("--scale", type=float, default=0.5, help="world-size multiplier")
    scenario.add_argument("--seed", type=int, default=0)
    scenario.add_argument("--samples", type=int, default=16, help="ensemble size N")
    scenario.add_argument("--ratio", type=float, default=0.3, help="sample ratio S")
    scenario.add_argument("--stripe", type=int, default=64, help="edges per sampling stripe")
    scenario.add_argument("--max-blocks", type=int, default=10)
    scenario.add_argument(
        "--engine", choices=PeelEngine.ALL, default=PeelEngine.DEFAULT, help="peeling backend"
    )
    _add_executor_flag(scenario)
    scenario.add_argument("--k", type=int, default=50, help="k of precision@k")
    scenario.add_argument("--outdir", default=None, help="write JSON/CSV artifacts here")
    scenario.add_argument("--max-rows", type=int, default=60, help="rows shown in the table")
    scenario.set_defaults(func=_cmd_scenario)

    experiments = sub.add_parser(
        "experiments", help="regenerate the paper's tables and figures", add_help=False
    )
    experiments.add_argument("rest", nargs=argparse.REMAINDER)
    experiments.set_defaults(func=lambda a: experiments_main(a.rest))
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (also installed as the ``ensemfdet`` script)."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
