"""Stable (hash-based) edge sampling for incremental re-detection.

:class:`RandomEdgeSampler` draws from a sequential RNG stream, so adding a
single edge to the graph reshuffles *every* sample — fine for one-shot
fits, useless for a streaming service that wants to refresh verdicts after
a small delta. :class:`StableEdgeSampler` instead decides membership with a
counter-based hash:

* edges are grouped into contiguous **stripes** of ``stripe`` edge indices;
* stripe ``s`` belongs to ensemble member ``i`` iff
  ``hash(key, i, s) < ratio · 2^64``, where ``key`` is derived once from
  the seed.

Two properties fall out:

**Prefix stability** — membership depends only on ``(key, i, stripe)``,
never on ``|E|``, so appending edges leaves every existing edge's sample
assignment untouched. A sample changes iff a delta edge's stripe hashes
into it; with repetition rate ``R = S·N``, a delta confined to one stripe
invalidates only ``≈ S·N`` of the ``N`` samples — that is the whole basis
of :class:`repro.ensemble.IncrementalEnsemFDet`'s speedup.

**Cold-fit equivalence** — a fresh :meth:`sample_many` on the grown graph
reproduces exactly the union of the old samples and the delta's stripe
assignments, which is what makes incremental updates bit-identical to a
cold re-fit with the same seed.

Striping trades sample independence for delta locality: edges in the same
stripe are co-sampled (cluster sampling over the append order). Because
transaction logs are appended in time order and fraud campaigns are bursty
in time (the FraudTrap observation), keeping a burst's edges together in
the same ensemble members is usually *helpful*; set ``stripe=1`` to
recover fully independent per-edge Bernoulli sampling (at the cost of any
delta touching almost every sample).

Each edge is included in each sample independently with probability ``S``
(Bernoulli), so ``E[|E_s|] = S·|E|`` rather than exactly ``⌈S·|E|⌉``.
"""

from __future__ import annotations

import numpy as np

from ..errors import SamplingError
from ..graph import BipartiteGraph
from ..graph.window import EdgeWindow, StripeIndex
from .base import SamplePlan, Sampler, resolve_rng

__all__ = ["StableEdgeSampler"]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SAMPLE_SALT = np.uint64(0xD6E8FEB86659FD93)
_STRIPE_SALT = np.uint64(0xA24BAED4963EE407)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, vectorised over uint64 arrays."""
    x = (x + _GOLDEN).astype(np.uint64)
    x ^= x >> np.uint64(30)
    x *= _MIX1
    x ^= x >> np.uint64(27)
    x *= _MIX2
    x ^= x >> np.uint64(31)
    return x


class StableEdgeSampler(Sampler):
    """Prefix-stable Bernoulli edge sampling over hash-assigned stripes.

    Parameters
    ----------
    ratio:
        Per-edge inclusion probability ``S``.
    stripe:
        Edges per stripe. Larger stripes localise deltas into fewer samples
        (faster incremental refresh); ``1`` gives independent per-edge
        sampling. Appends shorter than one stripe invalidate at most two
        stripes' worth of samples.
    """

    name = "ses"

    def __init__(self, ratio: float, stripe: int = 1024) -> None:
        super().__init__(ratio)
        stripe = int(stripe)
        if stripe < 1:
            raise SamplingError(f"stripe must be >= 1, got {stripe}")
        self.stripe = stripe

    # ------------------------------------------------------------------
    # deterministic machinery (shared with IncrementalEnsemFDet)
    # ------------------------------------------------------------------

    def derive_key(self, rng: np.random.Generator | int | None) -> int:
        """One hash key per fit, drawn deterministically from the seed/rng.

        ``EnsemFDet.fit`` resolves its configured seed into a fresh
        generator and hands it straight to :meth:`sample_many`; drawing the
        key as the generator's *first* value lets an incremental detector
        re-derive the identical key from the same seed later.
        """
        return int(resolve_rng(rng).integers(0, np.iinfo(np.int64).max, dtype=np.int64))

    def n_stripes(self, n_edges: int) -> int:
        """Stripes covering ``n_edges`` edges (at least 1)."""
        return max(1, -(-int(n_edges) // self.stripe))

    def stripe_inclusion(
        self, n_stripes: int, n_samples: int, key: int, start: int = 0
    ) -> np.ndarray:
        """Boolean matrix ``(n_samples, n_stripes)``: stripe ``start + k`` ∈ sample?

        Each entry hashes ``(key, sample, stripe)`` alone, so a window of
        stripes reads the same bits as the matching columns of the full
        matrix.
        """
        if self.ratio >= 1.0:
            return np.ones((n_samples, n_stripes), dtype=bool)
        samples = _splitmix64(
            np.arange(n_samples, dtype=np.uint64)[:, None] * _SAMPLE_SALT
            + np.uint64(key)
        )
        stripes = np.arange(start, start + n_stripes, dtype=np.uint64)[None, :] * _STRIPE_SALT
        hashes = _splitmix64(samples + stripes)
        threshold = np.uint64(int(self.ratio * float(2**64)))
        return hashes < threshold

    def stripe_row(self, n_stripes: int, sample_index: int, key: int) -> np.ndarray:
        """One member's row of :meth:`stripe_inclusion`, hashed standalone."""
        if self.ratio >= 1.0:
            return np.ones(n_stripes, dtype=bool)
        sample = _splitmix64(
            np.array([sample_index], dtype=np.uint64) * _SAMPLE_SALT + np.uint64(key)
        )
        stripes = np.arange(n_stripes, dtype=np.uint64) * _STRIPE_SALT
        hashes = _splitmix64(sample + stripes)
        return hashes < np.uint64(int(self.ratio * float(2**64)))

    def edge_mask(self, n_edges: int, key: int, sample_index: int) -> np.ndarray:
        """Per-edge inclusion mask of one ensemble member."""
        row = self.stripe_row(self.n_stripes(n_edges), sample_index, key)
        return self.expand_stripes(row, n_edges)

    def expand_stripes(self, stripe_row: np.ndarray, n_edges: int) -> np.ndarray:
        """Broadcast a per-stripe inclusion row out to a per-edge mask."""
        if self.stripe == 1:
            return stripe_row[:n_edges]
        return np.repeat(stripe_row, self.stripe)[:n_edges]

    def stripe_plan(self, stripe_row: np.ndarray, start: int = 0) -> SamplePlan:
        """Wrap one member's stripe-inclusion row as a :class:`SamplePlan`.

        The row is the natural *native* plan of this sampler: one boolean
        per stripe from stripe ``start`` on, which identifies the member's
        edge set on any prefix-extended graph, and on a window whose live
        edges lie in those stripes. That is what lets the incremental
        layer ship plans without recomputing them from scratch.
        """
        return SamplePlan(
            kind="stripes", stripe_row=stripe_row, stripe=self.stripe, stripe_start=start
        )

    def window_plans(
        self,
        window: EdgeWindow,
        n_samples: int,
        rng: np.random.Generator | int | None = None,
    ) -> list[SamplePlan]:
        """Plan all ``N`` members over the stripes that hold a window's live edges.

        Membership is keyed by append id, so the rows hash only the span
        from the oldest to the newest live edge, whatever the watermark.
        """
        key = self.derive_key(rng)
        index = StripeIndex(window, self.stripe)
        inclusion = self.stripe_inclusion(index.stop - index.start, n_samples, key, index.start)
        return [self.stripe_plan(inclusion[i], index.start) for i in range(n_samples)]

    # ------------------------------------------------------------------
    # Sampler interface
    # ------------------------------------------------------------------

    def plan(
        self, graph: BipartiteGraph, rng: np.random.Generator | int | None = None
    ) -> SamplePlan:
        """Plan one sampled subgraph (ensemble member 0 of the derived key)."""
        key = self.derive_key(rng)
        return self.stripe_plan(self.stripe_row(self.n_stripes(graph.n_edges), 0, key))

    def plan_many(
        self,
        graph: BipartiteGraph,
        n_samples: int,
        rng: np.random.Generator | int | None = None,
    ) -> list[SamplePlan]:
        """Plan all ``N`` members from one key (overrides the base loop).

        The stripe-inclusion matrix is hashed once for all members; each
        member's materialized subgraph keeps the parent's edge order, which
        is what the incremental layer relies on when it rebuilds a single
        member.
        """
        if n_samples < 1:
            raise SamplingError(f"n_samples must be >= 1, got {n_samples}")
        key = self.derive_key(rng)
        inclusion = self.stripe_inclusion(self.n_stripes(graph.n_edges), n_samples, key)
        return [self.stripe_plan(inclusion[index]) for index in range(n_samples)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StableEdgeSampler(ratio={self.ratio}, stripe={self.stripe})"
