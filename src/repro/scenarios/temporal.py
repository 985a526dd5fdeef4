"""Temporal attack shapes: campaigns whose *timing* is the evasion.

The generators in :mod:`repro.scenarios.generators` vary the attack's
structure; these vary its arrival pattern, which is what windowed
(:class:`~repro.graph.WindowConfig`) detection exists to handle:

=================  ========================================================
``slow_ramp``      grooming: the same fraud cohort buys a little at first,
                   then more each wave — the block only densifies late, so
                   detection *latency* (batches until flagged) is the
                   interesting metric
``burst_dormant``  a dense burst, a dormant stretch of honest-only traffic,
                   then a second burst — windowed detectors can forget the
                   first burst before the second lands
``attack_cleanup`` the block lands, time passes, then the attacker retracts
                   their purchase records (:data:`BatchKind.CLEANUP`).
                   Append-only pipelines keep flagging the ghost; a rolling
                   window decays the score once the evidence is gone
=================  ========================================================

Like every scenario, each instance carries an ordered replay stream;
``attack_cleanup`` is the one shape whose stream is *not* append-only —
its final batch lists edges to remove, which windowed streaming
detectors (``incremental:window=...``) honour and replays on a window with
no bound skip.
"""

from __future__ import annotations

import numpy as np

from ..errors import ScenarioError
from ..graph import BipartiteGraph, EdgeBatch
from .base import BatchKind, Scenario
from .generators import _batch, _check_density, _check_positive_int, _dense_block_edges

__all__ = ["SlowRampScenario", "BurstDormantScenario", "CleanupScenario"]


def _honest_noise(
    rng: np.random.Generator, background: BipartiteGraph, n_edges: int
) -> EdgeBatch:
    """A batch of unremarkable honest traffic (uniform user × merchant)."""
    users = rng.integers(0, background.n_users, size=n_edges).astype(np.int64)
    merchants = rng.integers(0, background.n_merchants, size=n_edges).astype(np.int64)
    return _batch(users, merchants)


class SlowRampScenario(Scenario):
    """Grooming: one fraud cohort whose block densifies wave by wave.

    Every wave re-targets the *same* fresh merchant set with the same
    users, but the per-wave Bernoulli density ramps linearly from
    ``start_density`` to ``density``. Early waves look like sparse noise;
    only the accumulated tail is a dense block — the scenario that
    separates "detected eventually" from "detected early".
    """

    name = "slow_ramp"
    description = "same fraud cohort densifies wave by wave (grooming ramp)"

    def __init__(
        self,
        n_waves: int = 5,
        block_merchants: int = 10,
        start_density: float = 0.05,
        density: float = 0.6,
    ) -> None:
        self.n_waves = _check_positive_int(n_waves, "n_waves")
        self.block_merchants = _check_positive_int(block_merchants, "block_merchants")
        _check_density(start_density)
        _check_density(density)
        self.start_density = float(start_density)
        self.density = float(density)

    def _attack(self, background, n_fraud, rng):
        users = np.arange(background.n_users, background.n_users + n_fraud, dtype=np.int64)
        merchants = np.arange(
            background.n_merchants, background.n_merchants + self.block_merchants, dtype=np.int64
        )
        if self.n_waves == 1:
            densities = [self.density]
        else:
            step = (self.density - self.start_density) / (self.n_waves - 1)
            densities = [self.start_density + step * i for i in range(self.n_waves)]
        batches = []
        for wave_density in densities:
            edge_users, edge_merchants = _dense_block_edges(
                rng, users, merchants, wave_density
            )
            batches.append(_batch(edge_users, edge_merchants))
        params = {
            "block_merchants": self.block_merchants,
            "start_density": self.start_density,
            "end_density": self.density,
            "n_waves": self.n_waves,
            "wave_densities": ",".join(f"{d:g}" for d in densities),
            "n_attack_edges": int(sum(batch.n_edges for batch in batches)),
        }
        return (
            tuple(batches),
            (BatchKind.WAVE,) * self.n_waves,
            users,
            params,
        )


class BurstDormantScenario(Scenario):
    """Burst, go dark, burst again.

    The full dense block fires twice, separated by ``dormant_batches`` of
    pure honest traffic. A rolling window shorter than the dormant gap
    forgets the first burst entirely; a window with no bound carries it
    forever. The second burst re-uses the same users and merchants, so the
    two regimes converge again at the end of the stream.
    """

    name = "burst_dormant"
    description = "dense burst, dormant honest-only gap, second burst"

    def __init__(
        self,
        block_merchants: int = 10,
        density: float = 0.6,
        dormant_batches: int = 3,
        noise_fraction: float = 0.05,
    ) -> None:
        self.block_merchants = _check_positive_int(block_merchants, "block_merchants")
        _check_density(density)
        self.dormant_batches = _check_positive_int(dormant_batches, "dormant_batches")
        if noise_fraction <= 0:
            raise ScenarioError(f"noise_fraction must be positive, got {noise_fraction}")
        self.density = float(density)
        self.noise_fraction = float(noise_fraction)

    def _attack(self, background, n_fraud, rng):
        users = np.arange(background.n_users, background.n_users + n_fraud, dtype=np.int64)
        merchants = np.arange(
            background.n_merchants, background.n_merchants + self.block_merchants, dtype=np.int64
        )
        first_u, first_m = _dense_block_edges(rng, users, merchants, self.density)
        noise_edges = max(8, int(round(background.n_edges * self.noise_fraction)))
        dormant = [
            _honest_noise(rng, background, noise_edges)
            for _ in range(self.dormant_batches)
        ]
        second_u, second_m = _dense_block_edges(rng, users, merchants, self.density)
        batches = (
            _batch(first_u, first_m),
            *dormant,
            _batch(second_u, second_m),
        )
        kinds = (
            BatchKind.ATTACK,
            *(BatchKind.BACKGROUND,) * self.dormant_batches,
            BatchKind.ATTACK,
        )
        params = {
            "block_merchants": self.block_merchants,
            "block_density": self.density,
            "dormant_batches": self.dormant_batches,
            "noise_edges_per_batch": noise_edges,
            "n_attack_edges": int(first_u.size + second_u.size),
        }
        return batches, kinds, users, params


class CleanupScenario(Scenario):
    """Attack, wait, then retract the evidence.

    The dense block lands as one batch; ``post_batches`` of honest noise
    follow; the final :data:`BatchKind.CLEANUP` batch lists *exactly* the
    attack's edges as retractions (the attacker cancelling orders or
    purging records). The dataset graph keeps the attack edges — that is
    the end state of a replay that skips the cleanup — while windowed
    replays, which honour the cleanup, end with no fraud evidence at all.
    The drift grid asserts the asymmetry: its ``append`` rows keep flagging
    the ghost block, windowed scores decay after cleanup.
    """

    name = "attack_cleanup"
    description = "dense block, honest gap, then the attack edges retracted"

    def __init__(
        self,
        block_merchants: int = 10,
        density: float = 0.6,
        post_batches: int = 2,
        noise_fraction: float = 0.05,
    ) -> None:
        self.block_merchants = _check_positive_int(block_merchants, "block_merchants")
        _check_density(density)
        self.post_batches = _check_positive_int(post_batches, "post_batches")
        if noise_fraction <= 0:
            raise ScenarioError(f"noise_fraction must be positive, got {noise_fraction}")
        self.density = float(density)
        self.noise_fraction = float(noise_fraction)

    def _attack(self, background, n_fraud, rng):
        users = np.arange(background.n_users, background.n_users + n_fraud, dtype=np.int64)
        merchants = np.arange(
            background.n_merchants, background.n_merchants + self.block_merchants, dtype=np.int64
        )
        attack_u, attack_m = _dense_block_edges(rng, users, merchants, self.density)
        noise_edges = max(8, int(round(background.n_edges * self.noise_fraction)))
        post = [
            _honest_noise(rng, background, noise_edges)
            for _ in range(self.post_batches)
        ]
        batches = (
            _batch(attack_u, attack_m),
            *post,
            # the cleanup batch repeats the attack's exact edge pairs — a
            # windowed replay retracts them, one with no bound skips it
            _batch(attack_u, attack_m),
        )
        kinds = (
            BatchKind.ATTACK,
            *(BatchKind.BACKGROUND,) * self.post_batches,
            BatchKind.CLEANUP,
        )
        params = {
            "block_merchants": self.block_merchants,
            "block_density": self.density,
            "post_batches": self.post_batches,
            "noise_edges_per_batch": noise_edges,
            "n_attack_edges": int(attack_u.size),
            "n_cleanup_edges": int(attack_u.size),
        }
        return batches, kinds, users, params
