"""FDET: heuristic k-disjoint dense-block detection (paper §IV-B)."""

from .density import AverageDegreeDensity, DensityMetric, LogWeightedDensity
from .fdet import Block, Fdet, FdetConfig, FdetResult, WeightPolicy
from .peeling import PeelEngine, PeelResult, greedy_peel
from .truncation import FixedKRule, SecondDifferenceRule, TruncationRule, second_differences

__all__ = [
    "DensityMetric",
    "LogWeightedDensity",
    "AverageDegreeDensity",
    "Block",
    "Fdet",
    "FdetConfig",
    "FdetResult",
    "WeightPolicy",
    "PeelEngine",
    "PeelResult",
    "greedy_peel",
    "TruncationRule",
    "SecondDifferenceRule",
    "FixedKRule",
    "second_differences",
]
