"""Exception hierarchy for the :mod:`repro` package.

Every error raised deliberately by this library derives from
:class:`ReproError` so that callers can catch library failures with a single
``except`` clause while letting programming errors (``TypeError`` from bad
call signatures, etc.) propagate unchanged.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Base class for errors related to bipartite graph construction/use."""


class GraphValidationError(GraphError):
    """A graph's internal arrays are inconsistent (bad indices, lengths...)."""


class EmptyGraphError(GraphError):
    """An operation that requires at least one edge received an empty graph."""


class SamplingError(ReproError):
    """A sampler was configured with invalid parameters."""


class DetectionError(ReproError):
    """A detector (FDET, baseline) was configured or invoked incorrectly."""


class ParallelError(ReproError):
    """Base class for failures of the parallel execution substrate.

    Raised *instead of* the raw ``concurrent.futures`` exceptions so
    callers see which ensemble members were in flight and what to do about
    it, not an opaque pool traceback.
    """

    def __init__(self, message: str, member_indices: tuple[int, ...] = ()) -> None:
        super().__init__(message)
        #: global indices of the work items that did not complete
        self.member_indices = tuple(int(i) for i in member_indices)


class WorkerCrashError(ParallelError):
    """A pool worker died (SIGKILL, OOM, segfault) before finishing its chunk."""


class MemberTimeoutError(ParallelError):
    """A member (or its chunk) exceeded the configured wall-clock timeout."""


class QuorumError(DetectionError):
    """Too many ensemble members failed permanently to trust a vote."""


class StateError(DetectionError):
    """Base class for detection-state persistence failures."""


class StateChecksumError(StateError):
    """A state archive is corrupt (bad checksum, truncated, unreadable).

    Raised for *any* unreadable or integrity-failing archive so that a
    corrupted snapshot can never be mistaken for a semantic error — and
    never silently yields a wrong vote table.
    """


class InjectedFault(ReproError):
    """A deliberate, deterministic failure raised by the fault-injection layer."""


class AggregationError(ReproError):
    """Vote aggregation received inconsistent inputs."""


class DatasetError(ReproError):
    """Synthetic dataset generation or loading failed."""


class ExperimentError(ReproError):
    """An experiment driver was configured incorrectly."""


class ScenarioError(ReproError):
    """An adversarial scenario or the scenario harness was misconfigured."""
