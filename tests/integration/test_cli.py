"""Integration tests for the command-line interface."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cli import build_parser, main
from repro.datasets import load_dataset, uniform_bipartite
from repro.ensemble import EnsemFDet, IncrementalEnsemFDet
from repro.errors import AggregationError, GraphError
from repro.graph import save_edge_list


@pytest.fixture
def edges_file(tmp_path, toy):
    path = tmp_path / "edges.tsv"
    save_edge_list(toy.graph, path)
    return path


def _src_env() -> dict[str, str]:
    """This environment with the package's source directory first on PYTHONPATH."""
    src_dir = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src_dir), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    return env


class TestParser:
    @pytest.mark.parametrize(
        "argv",
        [
            ["detect", "edges.tsv"],
            ["watch", "edges.tsv", "--state", "state.npz"],
            ["serve", "edges.tsv", "--state", "state.npz"],
        ],
        ids=["detect", "watch", "serve"],
    )
    def test_executor_defaults_to_serial(self, argv):
        assert build_parser().parse_args(argv).executor == "serial"

    @pytest.mark.parametrize("flag", ["--no-shm", "--shards=2", "--mmap", "--executor=thread"])
    def test_retired_flags_rejected(self, flag):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["detect", "edges.tsv", flag])


class TestDetectCommand:
    def test_detect_prints_nodes(self, edges_file, capsys):
        code = main(
            [
                "detect",
                str(edges_file),
                "--ratio", "0.4",
                "--samples", "8",
                "--threshold", "3",
                "--executor", "process",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# detected" in out
        assert "user\t" in out

    def test_default_threshold(self, edges_file, capsys):
        code = main(
            ["detect", str(edges_file), "--ratio", "0.4", "--samples", "8",
             "--executor", "serial"]
        )
        assert code == 0
        assert "T=2" in capsys.readouterr().out

    def test_explicit_threshold_zero_not_replaced_by_default(self, edges_file):
        # regression: `args.threshold or default` swallowed an explicit 0 and
        # silently ran with T=N//4; 0 must reach the aggregator and be rejected
        with pytest.raises(AggregationError, match="threshold"):
            main(
                ["detect", str(edges_file), "--ratio", "0.4", "--samples", "8",
                 "--threshold", "0", "--executor", "serial"]
            )

    def test_explicit_threshold_one_honoured(self, edges_file, capsys):
        code = main(
            ["detect", str(edges_file), "--ratio", "0.4", "--samples", "8",
             "--threshold", "1", "--executor", "serial"]
        )
        assert code == 0
        assert "T=1" in capsys.readouterr().out

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_engine_flag(self, edges_file, capsys, engine):
        code = main(
            ["detect", str(edges_file), "--ratio", "0.4", "--samples", "6",
             "--executor", "serial", "--engine", engine]
        )
        assert code == 0
        assert "# detected" in capsys.readouterr().out

    def test_engines_detect_identically(self, edges_file, capsys):
        outputs = []
        for engine in ("reference", "fast"):
            code = main(
                ["detect", str(edges_file), "--ratio", "0.4", "--samples", "6",
                 "--threshold", "2", "--executor", "serial", "--engine", engine]
            )
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestDetectorFlag:
    @pytest.mark.parametrize(
        "spec", ["fraudar:n_blocks=3", "degree", "degree:weighted=1", "fdet:max_blocks=3"]
    )
    def test_registry_specs_run(self, edges_file, capsys, spec):
        code = main(["detect", str(edges_file), "--detector", spec, "--top", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fitted" in out
        assert "user\t" in out

    def test_ensemble_spec_honours_flags(self, edges_file, capsys):
        code = main(
            ["detect", str(edges_file), "--detector", "ensemfdet",
             "--ratio", "0.4", "--samples", "6", "--executor", "serial", "--top", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# ensemfdet:" in out
        # at most 3 ranked users printed
        assert sum(1 for line in out.splitlines() if line.startswith("user\t")) <= 3

    def test_unknown_spec_fails_loudly(self, edges_file):
        from repro.errors import DetectionError

        with pytest.raises(DetectionError, match="unknown detector"):
            main(["detect", str(edges_file), "--detector", "oracle"])

    def test_threshold_with_detector_rejected(self, edges_file, capsys):
        # --threshold is meaningless on the ranking path; it must fail
        # loudly instead of being silently dropped
        code = main(
            ["detect", str(edges_file), "--detector", "degree", "--threshold", "3"]
        )
        assert code == 2
        assert "--threshold has no effect" in capsys.readouterr().err

    def test_ensemble_spec_reports_sampler(self, edges_file, capsys):
        code = main(
            ["detect", str(edges_file), "--detector", "ensemfdet",
             "--ratio", "0.4", "--samples", "6", "--executor", "serial", "--top", "1"]
        )
        assert code == 0
        assert "# sampler: StableEdgeSampler" in capsys.readouterr().out


class TestDetectorsCommand:
    def test_lists_registry(self, capsys):
        from repro.detectors import DETECTOR_NAMES

        code = main(["detectors", "--list"])
        assert code == 0
        out = capsys.readouterr().out
        for name in DETECTOR_NAMES:
            assert name in out
        assert "streaming" in out
        assert "parity=" in out


class TestDatasetCommand:
    def test_generates_loadable_dataset(self, tmp_path, capsys):
        outdir = tmp_path / "jd"
        code = main(["dataset", str(outdir), "--index", "1", "--scale", "0.08"])
        assert code == 0
        dataset = load_dataset(outdir)
        assert dataset.graph.n_edges > 0
        assert "wrote" in capsys.readouterr().out


class TestStatsCommand:
    def test_stats_output(self, edges_file, capsys):
        code = main(["stats", str(edges_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "edges" in out
        assert "avg_deg_user" in out


class TestExperimentsCommand:
    def test_runs_single_experiment(self, capsys):
        code = main(["experiments", "table1", "--scale", "tiny"])
        assert code == 0
        assert "Table I" in capsys.readouterr().out


@pytest.fixture
def stream_file(tmp_path):
    graph = uniform_bipartite(120, 60, 900, rng=0)
    path = tmp_path / "stream.tsv"
    save_edge_list(graph, path)
    return path


def _watch_args(stream_file, state, extra=()):
    return [
        "watch", str(stream_file), "--state", str(state),
        "--ratio", "0.25", "--samples", "8", "--stripe", "128",
        "--executor", "serial", "--interval", "0",
        *extra,
    ]


def _count_parsed_rows(monkeypatch) -> list:
    """Every row the edge-list parser yields from now on, in order."""
    import repro.cli as cli
    import repro.graph.io as graph_io

    parse_rows = graph_io._iter_rows
    parsed = []

    def counted(*args, **kwargs):
        for row in parse_rows(*args, **kwargs):
            parsed.append(row)
            yield row

    monkeypatch.setattr(graph_io, "_iter_rows", counted)
    monkeypatch.setattr(cli, "_iter_rows", counted)
    return parsed


def _grow_on_each_poll(monkeypatch, path, appends):
    """Append the next of ``appends`` to ``path`` where ``watch`` waits out its interval."""
    import repro.cli as cli

    appends = iter(appends)

    def grow_the_file(guard, seconds):
        with path.open("a") as fh:
            fh.write(next(appends))
        return False

    monkeypatch.setattr(cli._ShutdownGuard, "wait", grow_the_file)


def _assert_newest_rows(state, watch_rows, newest):
    """The saved state took in ``watch_rows`` source rows, ends with the
    edges ``newest`` and votes as a cold ``fit_window`` on its window."""
    detector = IncrementalEnsemFDet.load(state)
    assert detector.meta["watch_rows"] == watch_rows
    live = detector.window().live_graph()
    tail = zip(live.edge_users[-len(newest):], live.edge_merchants[-len(newest):])
    assert [(int(live.user_labels[u]), int(live.merchant_labels[m])) for u, m in tail] == newest
    cold = EnsemFDet(detector.config).fit_window(detector.window())
    assert cold.vote_table.user_votes == detector.vote_table.user_votes
    assert cold.vote_table.merchant_votes == detector.vote_table.merchant_votes


class TestWatchCommand:
    def test_cold_fit_creates_state(self, stream_file, tmp_path, capsys):
        state = tmp_path / "state.npz"
        code = main(_watch_args(stream_file, state, ["--iterations", "0"]))
        assert code == 0
        assert state.exists()
        out = capsys.readouterr().out
        assert "# cold fit" in out
        assert "# detected" in out

    def test_incremental_update_on_appended_rows(self, stream_file, tmp_path, capsys):
        state = tmp_path / "state.npz"
        assert main(_watch_args(stream_file, state, ["--iterations", "0"])) == 0
        capsys.readouterr()
        rng = np.random.default_rng(4)
        with stream_file.open("a") as fh:
            for u, v in zip(rng.integers(0, 120, 12), rng.integers(0, 60, 12)):
                fh.write(f"{u}\t{v}\n")
        code = main(_watch_args(stream_file, state, ["--iterations", "1"]))
        assert code == 0
        out = capsys.readouterr().out
        assert "# loaded state" in out
        assert "# update: +12 edges" in out

    def test_polls_parse_each_appended_row_once(self, stream_file, tmp_path, monkeypatch):
        """A poll seeks past the rows already taken in and parses only the
        complete rows after them: a row cut mid-write ("13<TAB>4" of
        "13<TAB>45") waits for its newline instead of entering as an edge."""
        parsed = _count_parsed_rows(monkeypatch)
        appends = ["11\t4\n12\t5\n13\t4", "5\n14\t6\n", "15\t7\n"]
        _grow_on_each_poll(monkeypatch, stream_file, appends)
        state = tmp_path / "state.npz"
        rows = len(stream_file.read_text().splitlines()) - 1  # below the header
        extra = ["--iterations", "3", "--interval", "1"]
        assert main(_watch_args(stream_file, state, extra)) == 0
        assert len(parsed) == rows + 5  # the cold fit's rows, then each new row once
        _assert_newest_rows(state, rows + 5, [(11, 4), (12, 5), (13, 45), (14, 6), (15, 7)])

    def test_cold_fit_and_resume_leave_a_torn_row_for_its_newline(
        self, stream_file, tmp_path, monkeypatch
    ):
        """The cold fit reads through the same tail as the polls, so a torn
        last row at start waits too; a resumed run passes over the rows its
        state holds once, then parses only what follows them."""
        rows = len(stream_file.read_text().splitlines()) - 1
        with stream_file.open("a") as fh:
            fh.write("13\t4")
        parsed = _count_parsed_rows(monkeypatch)
        _grow_on_each_poll(monkeypatch, stream_file, ["5\n14\t6\n16\t8", "1\n"])
        state = tmp_path / "state.npz"
        extra = ["--iterations", "1", "--interval", "1"]
        assert main(_watch_args(stream_file, state, extra)) == 0
        assert len(parsed) == rows + 2  # the cold fit's rows, then the two completed ones
        _assert_newest_rows(state, rows + 2, [(13, 45), (14, 6)])

        parsed.clear()
        assert main(_watch_args(stream_file, state, extra)) == 0
        assert len(parsed) == (rows + 2) + 1  # the held rows once, then the new one
        _assert_newest_rows(state, rows + 3, [(13, 45), (14, 6), (16, 81)])

    def test_no_new_rows_no_update(self, stream_file, tmp_path, capsys):
        state = tmp_path / "state.npz"
        assert main(_watch_args(stream_file, state, ["--iterations", "0"])) == 0
        capsys.readouterr()
        code = main(_watch_args(stream_file, state, ["--iterations", "2"]))
        assert code == 0
        assert "# update" not in capsys.readouterr().out


class TestUpdateCommand:
    def test_headerless_delta(self, stream_file, tmp_path, capsys):
        state = tmp_path / "state.npz"
        assert main(_watch_args(stream_file, state, ["--iterations", "0"])) == 0
        capsys.readouterr()
        delta = tmp_path / "delta.tsv"
        delta.write_text("3\t7\n5\t9\n")
        code = main(["update", str(delta), "--state", str(state)])
        assert code == 0
        out = capsys.readouterr().out
        assert "# update: +2 edges" in out
        assert "# detected" in out

    def test_missing_state_errors(self, tmp_path, capsys):
        delta = tmp_path / "delta.tsv"
        delta.write_text("0\t0\n")
        code = main(["update", str(delta), "--state", str(tmp_path / "none.npz")])
        assert code == 2
        assert "no detection state" in capsys.readouterr().err

    def test_update_then_watch_does_not_lose_file_rows(
        self, stream_file, tmp_path, capsys
    ):
        # regression: watch used the state's edge count as its file offset,
        # so delta edges applied via 'update' made it skip freshly appended
        # file rows; the offset is tracked in the state's meta instead
        state = tmp_path / "state.npz"
        assert main(_watch_args(stream_file, state, ["--iterations", "0"])) == 0
        delta = tmp_path / "delta.tsv"
        delta.write_text("1\t1\n2\t2\n3\t3\n")
        assert main(["update", str(delta), "--state", str(state)]) == 0
        capsys.readouterr()
        with stream_file.open("a") as fh:
            for row in range(5):
                fh.write(f"{row}\t{row % 3}\n")
        code = main(_watch_args(stream_file, state, ["--iterations", "1"]))
        assert code == 0
        assert "# update: +5 edges" in capsys.readouterr().out


def _serve_args(edges, state, extra=()):
    return [
        "serve", str(edges), "--state", str(state),
        "--ratio", "0.25", "--samples", "8", "--stripe", "128",
        "--executor", "serial", "--port", "0",
        *extra,
    ]


class TestStateDirectory:
    @pytest.mark.parametrize("command", ["watch", "serve"])
    def test_missing_directory_exits_2_before_the_source_is_read(
        self, stream_file, tmp_path, capsys, monkeypatch, command
    ):
        """A state path in a missing directory used to cost a whole cold
        fit and then end in a raw FileNotFoundError from the commit."""
        parsed = _count_parsed_rows(monkeypatch)
        before = sorted(tmp_path.rglob("*"))
        state = tmp_path / "missing" / "state.npz"
        args = {"watch": _watch_args, "serve": _serve_args}[command]
        extra = ["--iterations", "0"] if command == "watch" else []
        assert main(args(stream_file, state, extra)) == 2
        out, err = capsys.readouterr()
        assert "# cold fit" not in out
        assert err.count("\n") == 1 and f"no directory {state.parent}" in err
        assert parsed == []
        assert sorted(tmp_path.rglob("*")) == before


class TestUndecodableSource:
    @pytest.mark.parametrize("command", ["detect", "watch", "serve", "update"])
    def test_a_byte_that_is_not_utf8_is_a_graph_error(
        self, stream_file, tmp_path, command
    ):
        """Every command's edge reader names the file and line of the byte,
        as for any other malformed row, instead of a raw UnicodeDecodeError."""
        state = tmp_path / "state.npz"
        if command == "update":
            assert main(_watch_args(stream_file, state, ["--iterations", "0"])) == 0
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(
            b"# bipartite users=2 merchants=2 edges=2 weighted=0\n1\t2\n3\xff\xfe\t4\n"
        )
        argv = {
            "detect": ["detect", str(bad)],
            "watch": _watch_args(bad, state, ["--iterations", "0"]),
            "serve": _serve_args(bad, state),
            "update": ["update", str(bad), "--state", str(state)],
        }[command]
        with pytest.raises(GraphError, match=r"bad\.tsv:3: byte 0xff is not UTF-8"):
            main(argv)


#: A fresh interpreter's start path, one step at a time: after each step it
#: records which of scipy and asyncio are loaded. The serve step stops the
#: server as soon as it has bound, through the command's own SIGTERM handling.
_START_PATH = r"""
import json, os, signal, sys

edges, state_dir, report = sys.argv[1:]
loaded = {}

def step(name):
    loaded[name] = sorted({"scipy", "asyncio"} & set(sys.modules))

import repro
step("import repro")
import repro.cli
step("import repro.cli")
repro.cli.build_parser()
step("build_parser()")
fit = ["--ratio", "0.25", "--samples", "8", "--stripe", "128", "--executor", "serial"]
watch = ["watch", edges, "--state", os.path.join(state_dir, "watch.npz"), "--iterations", "0"]
assert repro.cli.main(watch + fit) == 0
step("watch --iterations 0")

from repro.serve import ScoringServer

start = ScoringServer.start

async def start_then_stop(self):
    await start(self)
    os.kill(os.getpid(), signal.SIGTERM)

ScoringServer.start = start_then_stop
serve = ["serve", edges, "--state", os.path.join(state_dir, "serve.npz"), "--port", "0"]
assert repro.cli.main(serve + fit) == 0
step("serve bootstrap")
with open(report, "w") as fh:
    json.dump(loaded, fh)
"""


class TestStartPath:
    def test_scipy_never_loads_and_asyncio_only_for_serve(self, stream_file, tmp_path):
        """scipy serves only ``to_scipy``, SpokEn and FBox, and asyncio only
        ``serve``'s event loop: a command that does not run them does not
        pay for loading them."""
        report = tmp_path / "loaded.json"
        proc = subprocess.run(
            [sys.executable, "-c", _START_PATH, str(stream_file), str(tmp_path), str(report)],
            capture_output=True,
            text=True,
            env=_src_env(),
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(report.read_text()) == {
            "import repro": [],
            "import repro.cli": [],
            "build_parser()": [],
            "watch --iterations 0": [],
            "serve bootstrap": ["asyncio"],
        }
        assert (tmp_path / "watch.npz").exists() and (tmp_path / "serve.npz").exists()


class TestWatchGracefulShutdown:
    """Regression: a signal in the poll gap must not lose state.

    ``watch`` used to sit in a bare ``time.sleep`` between polls — SIGINT
    there raised KeyboardInterrupt (traceback, non-zero exit) and SIGTERM
    killed the process outright, in both cases skipping the state commit.
    The loop now converts both signals into a clean drain-commit-exit.
    """

    def test_sigint_exits_zero_and_commits_state(self, stream_file, tmp_path, capsys):
        state = tmp_path / "state.npz"
        assert main(_watch_args(stream_file, state, ["--iterations", "0"])) == 0
        capsys.readouterr()
        # interrupt an infinite watch mid-sleep; the handler is installed
        # before the loop starts, so a 1s timer cannot outrun it
        timer = threading.Timer(1.0, os.kill, (os.getpid(), signal.SIGINT))
        timer.start()
        try:
            code = main(
                _watch_args(
                    stream_file, state,
                    ["--iterations", "-1", "--interval", "0.2"],
                )
            )
        finally:
            timer.cancel()
        assert code == 0
        captured = capsys.readouterr()
        assert "# interrupted: state committed" in captured.err
        # the committed state is loadable and still append-consistent
        from repro.ensemble import IncrementalEnsemFDet

        detector, recovered_from = IncrementalEnsemFDet.load_with_recovery(state)
        assert recovered_from is None
        assert detector.meta["watch_rows"] == detector.graph.n_edges

    def test_previous_handlers_restored(self, stream_file, tmp_path, capsys):
        state = tmp_path / "state.npz"
        before_int = signal.getsignal(signal.SIGINT)
        before_term = signal.getsignal(signal.SIGTERM)
        assert main(_watch_args(stream_file, state, ["--iterations", "0"])) == 0
        assert signal.getsignal(signal.SIGINT) is before_int
        assert signal.getsignal(signal.SIGTERM) is before_term

    @pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM])
    def test_signal_to_subprocess_commits_and_exits_zero(
        self, stream_file, tmp_path, sig
    ):
        state = tmp_path / "state.npz"
        assert main(_watch_args(stream_file, state, ["--iterations", "0"])) == 0
        proc = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro.cli",
                *_watch_args(
                    stream_file, state, ["--iterations", "-1", "--interval", "0.2"]
                ),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=_src_env(),
        )
        try:
            # wait for the reload banner so the loop (and its handlers)
            # is definitely up before signalling
            line = ""
            while "# loaded state" not in line:
                line = proc.stdout.readline()
                assert line, "watch exited before becoming ready"
            proc.send_signal(sig)
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup on failure
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, err
        assert "# interrupted: state committed" in err
        assert "Traceback" not in err


class TestScenarioCommand:
    def test_list_prints_registry(self, capsys):
        from repro.scenarios import SCENARIO_NAMES

        code = main(["scenario", "--list"])
        assert code == 0
        out = capsys.readouterr().out
        for name in SCENARIO_NAMES:
            assert name in out

    def test_grid_runs_and_writes_artifacts(self, tmp_path, capsys):
        code = main(
            [
                "scenario",
                "--scenarios", "naive_block,staged",
                "--intensities", "1.0",
                "--detectors", "ensemfdet,incremental",
                "--scale", "0.12",
                "--samples", "6",
                "--ratio", "0.4",
                "--stripe", "32",
                "--outdir", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scenario_grid" in out
        assert "naive_block" in out and "staged" in out
        assert (tmp_path / "scenario_grid.json").exists()
        assert (tmp_path / "scenario_grid.csv").exists()

    def test_unknown_scenario_fails_loudly(self):
        from repro.errors import ScenarioError

        with pytest.raises(ScenarioError, match="unknown scenario"):
            main(["scenario", "--scenarios", "bogus", "--intensities", "1.0"])

    def test_registry_spec_detectors(self, capsys):
        """Parameterised specs pass through the comma-separated flag
        (params stay attached to their spec)."""
        code = main(
            [
                "scenario",
                "--scenarios", "naive_block",
                "--intensities", "1.0",
                "--detectors", "degree:weighted=1,fraudar:n_blocks=2",
                "--scale", "0.12",
                "--samples", "6",
                "--ratio", "0.4",
                "--stripe", "32",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "degree:weighted=1" in out
        assert "fraudar:n_blocks=2" in out

    def test_unknown_detector_fails_loudly(self):
        from repro.errors import ScenarioError

        with pytest.raises(ScenarioError, match="unknown detectors"):
            main(["scenario", "--scenarios", "naive_block", "--detectors", "oracle"])


class TestWindowedWatch:
    def test_window_flag_round_trips_through_state(
        self, stream_file, tmp_path, capsys
    ):
        state = tmp_path / "state.npz"
        code = main(
            _watch_args(stream_file, state, ["--iterations", "0", "--window", "3"])
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "rolling window (last 3 batches)" in out
        # the reloaded state still knows it is windowed — no flag needed
        code = main(_watch_args(stream_file, state, ["--iterations", "0"]))
        assert code == 0
        assert "rolling window (last 3 batches)" in capsys.readouterr().out

    def test_windowed_updates_expire_old_batches(self, stream_file, tmp_path, capsys):
        state = tmp_path / "state.npz"
        assert main(
            _watch_args(stream_file, state, ["--iterations", "0", "--window", "2"])
        ) == 0
        rng = np.random.default_rng(9)
        for _ in range(3):
            with stream_file.open("a") as fh:
                for u, v in zip(rng.integers(0, 120, 10), rng.integers(0, 60, 10)):
                    fh.write(f"{u}\t{v}\n")
            capsys.readouterr()
            assert main(_watch_args(stream_file, state, ["--iterations", "1"])) == 0
        out = capsys.readouterr().out
        # by the third batch, a 2-batch window must have expired something
        assert "# update: +10 edges, expired" in out
        assert ", expired 0," not in out

    def test_horizon_flag_accepted(self, stream_file, tmp_path, capsys):
        state = tmp_path / "state.npz"
        code = main(
            _watch_args(
                stream_file, state, ["--iterations", "0", "--horizon", "3600"]
            )
        )
        assert code == 0
        assert "rolling window (horizon 3600)" in capsys.readouterr().out


class TestWindowedUpdate:
    def _windowed_state(self, stream_file, tmp_path):
        state = tmp_path / "state.npz"
        assert main(
            _watch_args(stream_file, state, ["--iterations", "0", "--window", "4"])
        ) == 0
        return state

    def test_remove_retracts_live_edges(self, stream_file, tmp_path, capsys):
        state = self._windowed_state(stream_file, tmp_path)
        graph = uniform_bipartite(120, 60, 900, rng=0)
        removals = tmp_path / "remove.tsv"
        removals.write_text(
            "".join(
                f"{u}\t{m}\n"
                for u, m in zip(
                    graph.edge_users[:4].tolist(), graph.edge_merchants[:4].tolist()
                )
            )
        )
        capsys.readouterr()
        code = main(["update", "--remove", str(removals), "--state", str(state)])
        assert code == 0
        out = capsys.readouterr().out
        assert "# update: +0 edges, -4 retracted" in out
        assert "# detected" in out

    def test_mixed_append_and_remove(self, stream_file, tmp_path, capsys):
        state = self._windowed_state(stream_file, tmp_path)
        graph = uniform_bipartite(120, 60, 900, rng=0)
        delta = tmp_path / "delta.tsv"
        delta.write_text("3\t7\n5\t9\n")
        removals = tmp_path / "remove.tsv"
        removals.write_text(
            f"{graph.edge_users[0]}\t{graph.edge_merchants[0]}\n"
        )
        capsys.readouterr()
        code = main(
            ["update", str(delta), "--remove", str(removals), "--state", str(state)]
        )
        assert code == 0
        assert "# update: +2 edges, -1 retracted" in capsys.readouterr().out

    def test_remove_on_state_without_a_window_bound_applies(
        self, stream_file, tmp_path, capsys
    ):
        state = tmp_path / "state.npz"
        assert main(_watch_args(stream_file, state, ["--iterations", "0"])) == 0
        assert "window with no bound" in capsys.readouterr().out
        graph = uniform_bipartite(120, 60, 900, rng=0)
        removals = tmp_path / "remove.tsv"
        removals.write_text(f"{graph.edge_users[0]}\t{graph.edge_merchants[0]}\n")
        code = main(
            ["update", "--remove", str(removals), "--timestamp", "7", "--state", str(state)]
        )
        assert code == 0
        assert "# update: +0 edges, -1 retracted, 0 expired" in capsys.readouterr().out
        detector = IncrementalEnsemFDet.load(state)
        assert detector.window().n_live == graph.n_edges - 1
        cold = EnsemFDet(detector.config).fit_window(detector.window())
        assert detector.vote_table.user_votes == cold.vote_table.user_votes
        assert detector.vote_table.merchant_votes == cold.vote_table.merchant_votes

    def test_no_delta_and_no_remove_is_refused(self, stream_file, tmp_path, capsys):
        state = self._windowed_state(stream_file, tmp_path)
        capsys.readouterr()
        code = main(["update", "--state", str(state)])
        assert code == 2
        assert "nothing to apply" in capsys.readouterr().err


class TestDriftCommand:
    def test_drift_grid_runs_and_writes_artifacts(self, tmp_path, capsys):
        code = main(
            [
                "scenario", "--drift",
                "--scale", "0.12",
                "--samples", "6",
                "--ratio", "0.4",
                "--stripe", "32",
                "--window", "6",
                "--outdir", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "drift_grid" in out
        for name in ("slow_ramp", "burst_dormant", "attack_cleanup"):
            assert name in out
        assert "latency" in out
        assert (tmp_path / "drift_grid.json").exists()
        assert (tmp_path / "drift_grid.csv").exists()

    def test_drift_takes_one_intensity(self, capsys):
        code = main(["scenario", "--drift", "--intensities", "1.0,2.0"])
        assert code == 2
        assert "single value" in capsys.readouterr().err
