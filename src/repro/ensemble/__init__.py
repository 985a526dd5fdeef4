"""EnsemFDet ensemble framework (paper §IV-C)."""

from .ensemfdet import EnsemFDet, EnsemFDetConfig, EnsemFDetResult
from .incremental import IncrementalEnsemFDet, UpdateReport
from .results import (
    DetectionResult,
    DetectionState,
    load_detection_state,
    load_detection_state_with_recovery,
    save_detection_state,
    state_backup_path,
)
from .runner import (
    MemberFailure,
    MemberRun,
    SampleDetection,
    detect_on_plans,
    run_members,
)
from .voting import VoteTable, majority_vote, normalized_majority_vote

__all__ = [
    "EnsemFDet",
    "EnsemFDetConfig",
    "EnsemFDetResult",
    "IncrementalEnsemFDet",
    "UpdateReport",
    "DetectionResult",
    "DetectionState",
    "save_detection_state",
    "load_detection_state",
    "load_detection_state_with_recovery",
    "state_backup_path",
    "MemberFailure",
    "MemberRun",
    "SampleDetection",
    "detect_on_plans",
    "run_members",
    "VoteTable",
    "majority_vote",
    "normalized_majority_vote",
]
