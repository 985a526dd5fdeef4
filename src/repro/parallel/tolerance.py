"""Fault-tolerance policy for the ensemble fan-out.

One frozen value object, :class:`FaultTolerance`, holds every degraded-mode
knob: the per-member wall-clock timeout, how many rounds re-run failed
members, and the minimum voting quorum. What a retry round runs on is not
a setting: it runs at once, in the parent, unless it retries a timed-out
member (see :func:`repro.ensemble.runner.run_members`). The runner
consumes the policy; the ensemble config embeds it and persists it with
detection state.
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
    min_quorum:
        Minimum surviving fraction of the ensemble (``0 < q ≤ 1``) for a
        vote to be meaningful. With fewer survivors the fit raises
        :class:`repro.errors.QuorumError` instead of returning a
        silently-weak detection.
    """

    member_timeout: float | None = None
    max_retries: int = 2
    min_quorum: float = 0.5

    def __post_init__(self) -> None:
        if self.member_timeout is not None and self.member_timeout <= 0:
            raise ReproError(
                f"member_timeout must be positive or None, got {self.member_timeout}"
            )
        if self.max_retries < 0:
            raise ReproError(f"max_retries must be >= 0, got {self.max_retries}")
        if not 0.0 < self.min_quorum <= 1.0:
            raise ReproError(f"min_quorum must be in (0, 1], got {self.min_quorum}")

    def required_survivors(self, n_samples: int) -> int:
        """Smallest surviving member count that still meets the quorum."""
        return max(1, math.ceil(self.min_quorum * n_samples))

    @classmethod
    def strict(cls) -> "FaultTolerance":
        """No retries, full quorum — fail on first error."""
        return cls(max_retries=0, min_quorum=1.0)

    def as_dict(self) -> dict:
        """JSON-able form for state persistence."""
        return {
            "member_timeout": self.member_timeout,
            "max_retries": self.max_retries,
            "min_quorum": self.min_quorum,
        }

    @classmethod
    def from_dict(cls, payload: dict | None) -> "FaultTolerance":
        """Inverse of :meth:`as_dict` (``None`` → defaults, for old states).

        States saved before config format 2 also hold ``backoff_seconds``
        and ``degrade``. They set only the wait before a retry and the
        backend it ran on, never a vote, so they are read and ignored.
        """
        if payload is None:
            return cls()
        retired = ("backoff_seconds", "degrade")
        return cls(**{key: value for key, value in payload.items() if key not in retired})
