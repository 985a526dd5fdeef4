"""Run ``ensemfdet serve`` in this process for the serving workload.

::

    python3 perfbench/serve_launcher.py OUT.json TRACED serve EDGES --state ... [serve flags]

The CLI's serve command runs unchanged. With ``TRACED`` = 1 the layer
wrappers of :mod:`spans` are installed before it starts; otherwise only the
runner's retry counters and the backend and transport that ran are
captured. SIGTERM makes the CLI drain its writer and return, and the
launcher then writes ``OUT.json``: this process's peak RSS, the final
snapshot's vote fingerprint and version, the runner counters and, when
traced, every span.
"""

from __future__ import annotations

import json
import resource
import sys


def main(argv: list[str]) -> int:
    out_path, traced, cli_args = argv[0], argv[1] == "1", argv[2:]

    import spans
    from repro import cli
    from repro.serve.service import DetectionService

    rec = spans.Recorder()
    if traced:
        spans.install(rec)
    else:
        spans.install_run_capture(rec)

    final: dict = {}
    close = DetectionService.close

    def close_and_record(self, save: bool = True) -> None:
        snapshot = self.snapshot
        final["fingerprint"] = spans.vote_fingerprint(
            snapshot.user_votes, snapshot.merchant_votes
        )
        final["version"] = snapshot.version
        close(self, save)

    DetectionService.close = close_and_record
    code = cli.main(cli_args)

    dump = rec.dump()
    counts = {
        name: sum(value for _at, value in dump["samples"].get(f"runner.{name}", ()))
        for name in ("retries", "failed_members", "attempts")
    }
    report = {
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "final": final,
        "runner": {
            **counts,
            "backend": dump["labels"].get("runner.backend", []),
            "transport": dump["labels"].get("runner.transport", []),
        },
    }
    if traced:
        report["trace"] = dump
    with open(out_path, "w") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
