"""Adversarial attack scenarios — the substrate of the robustness harness.

The paper evaluates EnsemFDet only against naively planted dense blocks
(the JD-like benchmark). Real attackers hide: FraudTrap-style campaigns mix
camouflage purchases into honest traffic, hijacked accounts carry honest
history before the fraud tail, and organised campaigns arrive in timed
waves. Each :class:`Scenario` models one such attack shape as a
*parameterised generator* that produces

* a labelled :class:`~repro.datasets.Dataset` (graph + exact ground truth),
  ready for any detector that consumes graphs, and
* an **ordered replay stream** — a tuple of
  :class:`~repro.graph.EdgeBatch` chunks whose accumulation through
  :class:`~repro.graph.GraphAccumulator` reproduces the dataset's graph
  bitwise.  Batch 0 is always the honest background; later batches are the
  attack arriving (for staged campaigns: one batch per wave).  This is what
  lets every scenario exercise the streaming path
  (:meth:`repro.ensemble.IncrementalEnsemFDet.update`) end to end, not just
  the cold :meth:`repro.ensemble.EnsemFDet.fit`.

The replay stream is the *source of truth*: the dataset graph is built by
accumulating the batches, so stream equivalence holds by construction and
the property suite (``tests/scenarios/test_scenario_properties.py``)
verifies it stays that way.

Two knobs are shared by every scenario so harness grids stay uniform:

``scale``
    Multiplies the honest background (users / merchants / edges) and the
    fraud campaign size together — the "how big is the world" axis.
``intensity``
    Multiplies only the fraud campaign size — the "how hard is the attack"
    axis swept by the robustness grids.
"""

from __future__ import annotations

import zlib
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..datasets import Blacklist, Dataset, chung_lu_bipartite
from ..errors import ScenarioError
from ..graph import BipartiteGraph, EdgeBatch, GraphAccumulator
from ..sampling import resolve_rng

__all__ = ["BatchKind", "Scenario", "ScenarioResult", "accumulate_batches"]


class BatchKind:
    """Replay-stream batch roles (plain strings, grep-friendly)."""

    BACKGROUND = "background"
    ATTACK = "attack"
    WAVE = "wave"
    #: edges to *retract* (attacker covering their tracks) — replays on a
    #: bounded window honour it; replays on a window with no bound skip it
    CLEANUP = "cleanup"


def accumulate_batches(
    batches: tuple[EdgeBatch, ...] | list[EdgeBatch],
    kinds: tuple[str, ...] | list[str] | None = None,
) -> BipartiteGraph:
    """Replay a scenario's batches through a fresh accumulator.

    This is what a replay that never forgets ends with; the returned graph
    is bitwise-equal to ``ScenarioResult.dataset.graph``. With ``kinds``,
    :data:`BatchKind.CLEANUP` batches are skipped — they list edges to
    *remove*, which an append-only accumulator cannot express.
    """
    if kinds is not None and len(kinds) != len(batches):
        raise ScenarioError(
            f"batch_kinds length {len(kinds)} does not match {len(batches)} batches"
        )
    accumulator = GraphAccumulator()
    for index, batch in enumerate(batches):
        if kinds is not None and kinds[index] == BatchKind.CLEANUP:
            continue
        accumulator.append(batch.users, batch.merchants, batch.weights)
    return accumulator.graph()


@dataclass(frozen=True)
class ScenarioResult:
    """One generated attack instance: labelled dataset + replay stream.

    Attributes
    ----------
    scenario:
        Registry name of the generator that produced this instance.
    intensity:
        The attack-strength multiplier it was generated at.
    dataset:
        Graph, clean blacklist (exactly the planted fraud users) and
        provenance params.
    batches:
        The ordered replay stream. ``batches[0]`` is the honest
        background; accumulating all non-:data:`BatchKind.CLEANUP`
        batches reproduces ``dataset.graph`` bitwise (see
        :func:`accumulate_batches`).
    batch_kinds:
        Parallel to ``batches``: :data:`BatchKind.BACKGROUND` /
        ``ATTACK`` / ``WAVE`` / ``CLEANUP`` role of each chunk.
    """

    scenario: str
    intensity: float
    dataset: Dataset
    batches: tuple[EdgeBatch, ...]
    batch_kinds: tuple[str, ...]

    @property
    def fraud_users(self) -> np.ndarray:
        """Global labels of exactly the planted fraud users."""
        return self.dataset.clean_fraud_labels

    @property
    def background(self) -> EdgeBatch:
        """The honest-traffic prefix of the stream."""
        return self.batches[0]

    @property
    def attack_batches(self) -> tuple[EdgeBatch, ...]:
        """Every non-background batch, in arrival order."""
        return self.batches[1:]

    @property
    def n_waves(self) -> int:
        """Number of :data:`BatchKind.WAVE` batches (0 for one-shot attacks)."""
        return sum(1 for kind in self.batch_kinds if kind == BatchKind.WAVE)

    def replay_graph(self) -> BipartiteGraph:
        """Re-accumulate the stream (bitwise-equal to ``dataset.graph``)."""
        return accumulate_batches(self.batches, self.batch_kinds)


class Scenario(ABC):
    """One parameterised attack generator.

    Subclasses set ``name`` / ``description`` and implement
    :meth:`_attack`, which receives the honest background plus the resolved
    fraud-campaign size and returns the attack's replay batches. The base
    class owns everything shared: argument validation, deterministic
    seeding (per-scenario salted so ``seed=0`` does not correlate
    scenarios), background synthesis, stream assembly and dataset
    packaging.
    """

    #: registry name (``naive_block``, ``camouflage``, ...)
    name: str = ""
    #: one-line human description (shown by ``ensemfdet scenario --list``)
    description: str = ""

    #: honest background size at ``scale = 1.0``
    base_users: int = 1200
    base_merchants: int = 480
    base_edges: int = 3600
    #: fraud campaign size at ``scale = intensity = 1.0``
    base_fraud_users: int = 48

    def generate(
        self, intensity: float = 1.0, scale: float = 1.0, seed: int = 0
    ) -> ScenarioResult:
        """Produce one labelled attack instance.

        The same ``(intensity, scale, seed)`` triple always produces the
        same instance, batch for batch.
        """
        if intensity <= 0:
            raise ScenarioError(f"intensity must be positive, got {intensity}")
        if scale <= 0:
            raise ScenarioError(f"scale must be positive, got {scale}")
        rng = resolve_rng(np.random.SeedSequence([int(seed), self._salt()]))
        background = chung_lu_bipartite(
            n_users=max(24, int(round(self.base_users * scale))),
            n_merchants=max(12, int(round(self.base_merchants * scale))),
            n_edges=max(48, int(round(self.base_edges * scale))),
            rng=rng,
        )
        n_fraud = max(3, int(round(self.base_fraud_users * scale * intensity)))

        attack_batches, kinds, fraud_users, attack_params = self._attack(
            background, n_fraud, rng
        )
        if not attack_batches:
            raise ScenarioError(f"scenario {self.name!r} produced no attack batches")
        batches = (
            EdgeBatch(
                users=background.edge_users,
                merchants=background.edge_merchants,
                weights=None,
            ),
            *attack_batches,
        )
        batch_kinds = (BatchKind.BACKGROUND, *kinds)
        graph = accumulate_batches(batches, batch_kinds)
        fraud_users = np.unique(np.asarray(fraud_users, dtype=np.int64))
        dataset = Dataset(
            name=f"{self.name}@i{intensity:g}",
            graph=graph,
            blacklist=Blacklist(fraud_users.tolist()),
            clean_fraud_labels=fraud_users,
            params={
                "scenario": self.name,
                "intensity": float(intensity),
                "scale": float(scale),
                "seed": int(seed),
                "n_background_users": background.n_users,
                "n_background_merchants": background.n_merchants,
                "n_background_edges": background.n_edges,
                "n_fraud_users": int(fraud_users.size),
                "n_batches": len(batches),
                **attack_params,
            },
        )
        return ScenarioResult(
            scenario=self.name,
            intensity=float(intensity),
            dataset=dataset,
            batches=batches,
            batch_kinds=batch_kinds,
        )

    def _salt(self) -> int:
        """Stable per-scenario seed salt (``hash()`` is randomised; crc32 is not)."""
        return zlib.crc32(self.name.encode("utf-8"))

    @abstractmethod
    def _attack(
        self, background: BipartiteGraph, n_fraud: int, rng: np.random.Generator
    ) -> tuple[tuple[EdgeBatch, ...], tuple[str, ...], np.ndarray, dict]:
        """Build the attack's replay batches against ``background``.

        Returns ``(batches, kinds, fraud_user_labels, extra_params)`` where
        ``kinds`` parallels ``batches`` and ``extra_params`` is merged into
        the dataset's provenance dict.
        """
