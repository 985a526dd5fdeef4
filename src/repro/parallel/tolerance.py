"""Fault-tolerance policy for the ensemble fan-out.

One frozen value object, :class:`FaultTolerance`, holds every degraded-mode
knob: per-member wall-clock timeout, bounded retry with deterministic
backoff, the backend-degradation ladder (process → serial), and the
minimum voting quorum.
The runner (:func:`repro.ensemble.runner.run_members`) consumes it; the
ensemble config embeds it and persists it with detection state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ReproError

__all__ = ["FaultTolerance"]


@dataclass(frozen=True)
class FaultTolerance:
    """Degraded-mode policy for one ensemble fit/update.

    Attributes
    ----------
    member_timeout:
        Wall-clock budget per ensemble member, in seconds. A chunk of
        ``k`` members gets ``k × member_timeout``; exceeding it kills the
        (process-backend) workers and marks the chunk's members failed
        for that attempt. ``None`` disables timeouts.
    max_retries:
        How many extra rounds failed members are re-run (0 = fail fast).
        Retried members re-materialize the same deterministic plan, so a
        recovered retry is bitwise-identical to a fault-free run.
    backoff_seconds:
        Deterministic backoff before retry round ``r``:
        ``backoff_seconds × 2**(r-1)`` (no jitter — retry schedules must
        reproduce exactly under a fixed fault plan).
    degrade:
        Walk the backend ladder on retries: process → serial, so retry
        rounds run in the parent, where pool infrastructure cannot take
        them down. A round that retries a timed-out member stays on the
        process pool, the one backend that enforces ``member_timeout``,
        so a member that hangs on every attempt still ends as a typed
        timeout failure. Whatever this flag says, a failed store-file map
        makes later process rounds ship the pickled store instead.
    min_quorum:
        Minimum surviving fraction of the ensemble (``0 < q ≤ 1``) for a
        vote to be meaningful. With fewer survivors the fit raises
        :class:`repro.errors.QuorumError` instead of returning a
        silently-weak detection.
    """

    member_timeout: float | None = None
    max_retries: int = 2
    backoff_seconds: float = 0.0
    degrade: bool = True
    min_quorum: float = 0.5

    def __post_init__(self) -> None:
        if self.member_timeout is not None and self.member_timeout <= 0:
            raise ReproError(
                f"member_timeout must be positive or None, got {self.member_timeout}"
            )
        if self.max_retries < 0:
            raise ReproError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_seconds < 0:
            raise ReproError(
                f"backoff_seconds must be >= 0, got {self.backoff_seconds}"
            )
        if not 0.0 < self.min_quorum <= 1.0:
            raise ReproError(f"min_quorum must be in (0, 1], got {self.min_quorum}")

    def required_survivors(self, n_samples: int) -> int:
        """Smallest surviving member count that still meets the quorum."""
        return max(1, math.ceil(self.min_quorum * n_samples))

    def backoff_for(self, retry_round: int) -> float:
        """Deterministic backoff before retry round ``retry_round`` (1-based)."""
        if self.backoff_seconds == 0.0 or retry_round < 1:
            return 0.0
        return self.backoff_seconds * (2.0 ** (retry_round - 1))

    @classmethod
    def strict(cls) -> "FaultTolerance":
        """No retries, no degradation, full quorum — fail on first error."""
        return cls(max_retries=0, degrade=False, min_quorum=1.0)

    def as_dict(self) -> dict:
        """JSON-able form for state persistence."""
        return {
            "member_timeout": self.member_timeout,
            "max_retries": self.max_retries,
            "backoff_seconds": self.backoff_seconds,
            "degrade": self.degrade,
            "min_quorum": self.min_quorum,
        }

    @classmethod
    def from_dict(cls, payload: dict | None) -> "FaultTolerance":
        """Inverse of :meth:`as_dict` (``None`` → defaults, for old states)."""
        if payload is None:
            return cls()
        return cls(**payload)
