"""Temporal drift grid: detection *latency* and decay, not just end-state F1.

The robustness grid (:mod:`repro.scenarios.harness`) scores each attack
once, after the whole stream has landed. Temporal attacks are precisely the
ones where that misses the story: a slow-ramp campaign is eventually
obvious but the interesting number is *how many batches* it stayed under
the radar; an attack-then-cleanup campaign looks identical to honest
traffic at the end — unless the detector never forgets.

This grid replays each temporal scenario step by step through the
incremental detector in two modes:

* ``append`` — a window with no bound: every edge it ever saw keeps
  voting, and the replay skips cleanup batches, so the detector never
  forgets;
* ``window`` — a rolling ``window_batches``-batch window: old edges
  expire, cleanup batches are honoured as retractions.

Per step it sweeps the integer vote table over every threshold and records
the best F1 against the planted fraud users — all integer/exact
arithmetic, so the series is bitwise reproducible and committable as a
golden fixture. Reported per cell:

* ``latency`` — 1-based index of the first step whose best F1 reaches
  ``f1_target`` (``-1`` if never), the batches-until-detected metric;
* ``final_f1`` / ``peak_f1`` — end-state versus best-ever detection;
* ``f1_series`` — the full per-step curve (comma-joined).

In both modes every step optionally cross-checks the incremental vote
table against a cold :meth:`~repro.ensemble.EnsemFDet.fit_window` on the
same live window — the bitwise-parity guarantee of the incremental layer,
enforced live here just like the parity against cold fits is in the
robustness grid.
"""

from __future__ import annotations

from dataclasses import dataclass


from ..ensemble import EnsemFDet, EnsemFDetConfig, IncrementalEnsemFDet
from ..errors import ScenarioError
from ..fdet import FdetConfig, PeelEngine
from ..graph import WindowConfig
from ..parallel import ExecutorMode, Timer
from ..sampling import StableEdgeSampler
from .base import BatchKind, ScenarioResult, accumulate_batches
from .registry import SCENARIO_NAMES, make_scenario

__all__ = ["DriftGridConfig", "run_drift_grid", "TEMPORAL_SCENARIOS"]

#: the shapes whose arrival pattern (not structure) is the evasion
TEMPORAL_SCENARIOS: tuple[str, ...] = ("slow_ramp", "burst_dormant", "attack_cleanup")

_MODES = ("append", "window")


@dataclass(frozen=True)
class DriftGridConfig:
    """One temporal sweep: scenarios × {append, window} replay modes."""

    scenarios: tuple[str, ...] = TEMPORAL_SCENARIOS
    modes: tuple[str, ...] = _MODES
    window_batches: int = 12
    intensity: float = 1.0
    scale: float = 0.25
    seed: int = 0
    n_samples: int = 16
    sample_ratio: float = 0.3
    stripe: int = 64
    max_blocks: int = 10
    engine: str = PeelEngine.DEFAULT
    executor: str = ExecutorMode.SERIAL
    #: best-F1 level that counts as "detected" for the latency metric
    f1_target: float = 0.6
    #: cross-check every step against a cold fit on the live window
    check_parity: bool = True

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise ScenarioError("drift grid needs at least one scenario")
        unknown = [name for name in self.scenarios if name not in SCENARIO_NAMES]
        if unknown:
            raise ScenarioError(
                f"unknown scenarios {unknown}; available: {', '.join(SCENARIO_NAMES)}"
            )
        bad_modes = [mode for mode in self.modes if mode not in _MODES]
        if bad_modes:
            raise ScenarioError(f"unknown drift modes {bad_modes}; valid: {_MODES}")
        if self.window_batches < 1:
            raise ScenarioError(
                f"window_batches must be >= 1, got {self.window_batches}"
            )
        if not 0.0 < self.f1_target <= 1.0:
            raise ScenarioError(f"f1_target must be in (0, 1], got {self.f1_target}")

    def ensemble_config(self) -> EnsemFDetConfig:
        """The shared detector configuration of every cell."""
        return EnsemFDetConfig(
            sampler=StableEdgeSampler(self.sample_ratio, stripe=self.stripe),
            n_samples=self.n_samples,
            fdet=FdetConfig(max_blocks=self.max_blocks, engine=self.engine),
            executor=self.executor,
            seed=self.seed,
        )


def _best_f1(table, fraud: set[int], n_samples: int) -> float:
    """Best F1 over the full voting-threshold sweep ``T = 1..N``.

    Integer votes, exact set arithmetic — deterministic to the last bit.
    """
    if not fraud:
        return 0.0
    best = 0.0
    votes = table.user_votes
    for threshold in range(1, n_samples + 1):
        detected = {label for label, count in votes.items() if count >= threshold}
        if not detected:
            continue
        hits = len(detected & fraud)
        if hits == 0:
            continue
        precision = hits / len(detected)
        recall = hits / len(fraud)
        best = max(best, 2.0 * precision * recall / (precision + recall))
    return best


def _assert_window_parity(
    detector: IncrementalEnsemFDet, config: EnsemFDetConfig, cell: str, step: int
) -> None:
    live = detector.window()
    cold = EnsemFDet(config).fit_window(live)
    if (
        detector.vote_table.user_votes != cold.vote_table.user_votes
        or detector.vote_table.merchant_votes != cold.vote_table.merchant_votes
    ):
        raise ScenarioError(
            f"drift cell {cell} step {step}: incremental vote table diverged "
            "from a cold fit on the live window — the incremental layer no "
            "longer reproduces EnsemFDet.fit_window"
        )


def _replay_cell(
    instance: ScenarioResult, mode: str, config: DriftGridConfig
) -> dict:
    """Replay one scenario through one mode; returns the cell row."""
    ensemble = config.ensemble_config()
    fraud = set(instance.fraud_users.tolist())
    cell = f"{instance.scenario}/{mode}"
    window = WindowConfig(max_batches=config.window_batches if mode == "window" else None)
    background = accumulate_batches(instance.batches[:1])

    with Timer() as timer:
        detector = IncrementalEnsemFDet(ensemble, window=window)
        detector.fit(background, timestamp=0.0)
        series: list[float] = []
        refreshed = 0
        for index, batch in enumerate(instance.attack_batches):
            kind = instance.batch_kinds[index + 1]
            if kind == BatchKind.CLEANUP and not window.bounded:
                # a window with no bound never forgets: the step happens
                # (the series stays aligned across modes) but the vote
                # table does not change
                series.append(_best_f1(detector.vote_table, fraud, ensemble.n_samples))
                continue
            if kind == BatchKind.CLEANUP:
                report = detector.update(
                    remove_users=batch.users,
                    remove_merchants=batch.merchants,
                    timestamp=float(index + 1),
                )
            else:
                report = detector.update(
                    batch.users, batch.merchants, batch.weights,
                    timestamp=float(index + 1),
                )
            refreshed += report.n_refreshed
            if config.check_parity:
                _assert_window_parity(detector, ensemble, cell, index + 1)
            series.append(_best_f1(detector.vote_table, fraud, ensemble.n_samples))

    latency = next(
        (step + 1 for step, f1 in enumerate(series) if f1 >= config.f1_target), -1
    )
    return {
        "scenario": instance.scenario,
        "mode": mode,
        "window_batches": config.window_batches if window.bounded else 0,
        "n_steps": len(series),
        "n_fraud": len(fraud),
        "latency": latency,
        "final_f1": round(series[-1], 6) if series else 0.0,
        "peak_f1": round(max(series), 6) if series else 0.0,
        "f1_series": ",".join(f"{f1:.6f}" for f1 in series),
        "n_refreshed": refreshed,
        "wall_seconds": round(timer.elapsed, 3),
    }


def run_drift_grid(config: DriftGridConfig, outdir: str | None = None):
    """Sweep scenario × mode, returning the standard ``ExperimentResult``.

    Each scenario instance is generated once and replayed through every
    mode, so ``append`` and ``window`` rows of one scenario describe the
    exact same stream.
    """
    from ..experiments.base import ExperimentResult

    rows = []
    for name in config.scenarios:
        instance = make_scenario(name).generate(
            intensity=config.intensity, scale=config.scale, seed=config.seed
        )
        for mode in config.modes:
            rows.append(_replay_cell(instance, mode, config))
    result = ExperimentResult(
        experiment="drift_grid",
        title="Temporal drift grid: detection latency and decay",
        rows=rows,
        meta={
            "scenarios": list(config.scenarios),
            "modes": list(config.modes),
            "window_batches": config.window_batches,
            "intensity": config.intensity,
            "scale": config.scale,
            "seed": config.seed,
            "n_samples": config.n_samples,
            "sample_ratio": config.sample_ratio,
            "stripe": config.stripe,
            "max_blocks": config.max_blocks,
            "engine": config.engine,
            "executor": config.executor,
            "f1_target": config.f1_target,
        },
    )
    if outdir is not None:
        from pathlib import Path

        directory = Path(outdir)
        directory.mkdir(parents=True, exist_ok=True)
        result.to_json(directory / "drift_grid.json")
        result.to_csv(directory / "drift_grid.csv")
    return result


def _series(row: dict) -> list[float]:
    return [float(x) for x in row["f1_series"].split(",") if x]


def cleanup_decay_summary(result) -> dict:
    """The attack-then-cleanup asymmetry, extracted from a grid result.

    Returns ``{"append_final": ..., "window_final": ..., "append_peak":
    ..., "window_peak": ...}`` for the ``attack_cleanup`` rows. The
    windowed detector's final F1 collapsing below its peak while the
    ``append`` replay stays at peak is the whole point of windowing.
    """
    rows = {
        row["mode"]: row for row in result.rows if row["scenario"] == "attack_cleanup"
    }
    if set(rows) < {"append", "window"}:
        raise ScenarioError(
            "cleanup_decay_summary needs attack_cleanup rows in both modes"
        )
    return {
        "append_final": rows["append"]["final_f1"],
        "append_peak": rows["append"]["peak_f1"],
        "window_final": rows["window"]["final_f1"],
        "window_peak": rows["window"]["peak_f1"],
    }
