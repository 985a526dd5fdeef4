"""EnsemFDet reproduction: ensemble fraud detection on bipartite graphs.

Reproduction of Ren et al., *"EnsemFDet: An Ensemble Approach to Fraud
Detection based on Bipartite Graph"* (ICDE 2021). See DESIGN.md for the
system inventory and EXPERIMENTS.md for paper-vs-measured results.

Quickstart::

    from repro import EnsemFDet, EnsemFDetConfig, RandomEdgeSampler, toy_dataset

    dataset = toy_dataset()
    config = EnsemFDetConfig(sampler=RandomEdgeSampler(0.2), n_samples=20, seed=0)
    result = EnsemFDet(config).fit(dataset.graph)
    flagged = result.detect(threshold=10)
    print(f"flagged {flagged.n_users} suspicious users")

Every public name below loads its submodule on first use (PEP 562), so
``import repro`` and a command that needs only part of the package load
only that part.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .baselines import DegreeDetector, FBoxDetector, FraudarDetector, SpokenDetector
    from .detectors import (
        DETECTOR_NAMES,
        Detection,
        Detector,
        DetectorContext,
        available_detectors,
        canonical_detector_spec,
        make_detector,
    )
    from .datasets import (
        Blacklist,
        Dataset,
        FraudBlockSpec,
        chung_lu_bipartite,
        inject_fraud_blocks,
        make_all_jd_datasets,
        make_jd_dataset,
        toy_dataset,
    )
    from .ensemble import (
        DetectionResult,
        EnsemFDet,
        EnsemFDetConfig,
        EnsemFDetResult,
        IncrementalEnsemFDet,
        UpdateReport,
        VoteTable,
        majority_vote,
    )
    from .errors import ReproError
    from .fdet import (
        Fdet,
        FdetConfig,
        FdetResult,
        FixedKRule,
        LogWeightedDensity,
        SecondDifferenceRule,
    )
    from .graph import BipartiteGraph, GraphAccumulator, GraphBuilder
    from .metrics import (
        Confusion,
        CurvePoint,
        auc_pr,
        best_f1,
        confusion_from_sets,
        detection_confusion,
        detection_curve,
        ensemble_threshold_curve,
        evaluate_detection,
        fraudar_block_curve,
        max_detected_gap,
        score_curve,
    )
    from .sampling import (
        OneSideNodeSampler,
        RandomEdgeSampler,
        Sampler,
        StableEdgeSampler,
        TwoSideNodeSampler,
        make_sampler,
    )
    from .scenarios import (
        Scenario,
        ScenarioGridConfig,
        ScenarioResult,
        make_scenario,
        run_grid,
    )

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    # graph
    "BipartiteGraph",
    "GraphBuilder",
    "GraphAccumulator",
    # sampling
    "Sampler",
    "RandomEdgeSampler",
    "StableEdgeSampler",
    "OneSideNodeSampler",
    "TwoSideNodeSampler",
    "make_sampler",
    # fdet
    "Fdet",
    "FdetConfig",
    "FdetResult",
    "LogWeightedDensity",
    "SecondDifferenceRule",
    "FixedKRule",
    # ensemble
    "EnsemFDet",
    "EnsemFDetConfig",
    "EnsemFDetResult",
    "IncrementalEnsemFDet",
    "UpdateReport",
    "DetectionResult",
    "VoteTable",
    "majority_vote",
    # baselines
    "FraudarDetector",
    "SpokenDetector",
    "FBoxDetector",
    "DegreeDetector",
    # detector layer
    "Detection",
    "Detector",
    "DetectorContext",
    "DETECTOR_NAMES",
    "available_detectors",
    "canonical_detector_spec",
    "make_detector",
    # datasets
    "Dataset",
    "Blacklist",
    "FraudBlockSpec",
    "inject_fraud_blocks",
    "chung_lu_bipartite",
    "make_jd_dataset",
    "make_all_jd_datasets",
    "toy_dataset",
    # metrics
    "Confusion",
    "confusion_from_sets",
    "CurvePoint",
    "detection_confusion",
    "detection_curve",
    "evaluate_detection",
    "ensemble_threshold_curve",
    "fraudar_block_curve",
    "score_curve",
    "auc_pr",
    "best_f1",
    "max_detected_gap",
    # scenarios
    "Scenario",
    "ScenarioResult",
    "ScenarioGridConfig",
    "make_scenario",
    "run_grid",
]

#: the submodule that defines each public name
_SOURCES = {
    name: module
    for module, names in {
        "errors": "ReproError",
        "graph": "BipartiteGraph GraphBuilder GraphAccumulator",
        "sampling": "Sampler RandomEdgeSampler StableEdgeSampler OneSideNodeSampler "
        "TwoSideNodeSampler make_sampler",
        "fdet": "Fdet FdetConfig FdetResult LogWeightedDensity SecondDifferenceRule FixedKRule",
        "ensemble": "EnsemFDet EnsemFDetConfig EnsemFDetResult IncrementalEnsemFDet "
        "UpdateReport DetectionResult VoteTable majority_vote",
        "baselines": "FraudarDetector SpokenDetector FBoxDetector DegreeDetector",
        "detectors": "Detection Detector DetectorContext DETECTOR_NAMES available_detectors "
        "canonical_detector_spec make_detector",
        "datasets": "Dataset Blacklist FraudBlockSpec inject_fraud_blocks chung_lu_bipartite "
        "make_jd_dataset make_all_jd_datasets toy_dataset",
        "metrics": "Confusion confusion_from_sets CurvePoint detection_confusion "
        "detection_curve evaluate_detection ensemble_threshold_curve fraudar_block_curve "
        "score_curve auc_pr best_f1 max_detected_gap",
        "scenarios": "Scenario ScenarioResult ScenarioGridConfig make_scenario run_grid",
    }.items()
    for name in names.split()
}


def __getattr__(name: str):
    module = _SOURCES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
