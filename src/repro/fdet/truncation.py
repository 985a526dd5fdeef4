"""Truncating-point rules for choosing ``k̂`` (paper Definition 3).

FDET keeps extracting blocks of decreasing density; the question is where to
stop counting blocks as meaningful. The paper adapts the elbow rule from
k-means: treat the per-block density series ``φ(G(S_1)), φ(G(S_2)), …`` as a
function of the block index and put the cut at

.. math::

    k̂ = \\arg\\min_i Δ²φ(G(S_i))

— the block with the most negative second-order finite difference, i.e. the
last block before the density series falls off its cliff.
:class:`FixedKRule` keeps a fixed number of blocks instead (the
ENSEMFDET-FIX-K baseline).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from ..errors import DetectionError

__all__ = [
    "TruncationRule",
    "SecondDifferenceRule",
    "FixedKRule",
    "second_differences",
]


def second_differences(values: Sequence[float]) -> np.ndarray:
    """Central second differences ``Δ²φ(i) = φ(i+1) − 2φ(i) + φ(i−1)``.

    Returned array has length ``len(values) − 2`` (interior points only);
    entry ``j`` corresponds to block index ``j + 1`` (0-based).
    """
    series = np.asarray(values, dtype=np.float64)
    if series.size < 3:
        return np.zeros(0, dtype=np.float64)
    return series[2:] - 2.0 * series[1:-1] + series[:-2]


class TruncationRule(ABC):
    """Strategy deciding how many leading blocks to keep."""

    name: str = "truncation"

    @abstractmethod
    def truncate(self, densities: Sequence[float]) -> int:
        """Return ``k̂ ≥ 1`` — the number of blocks to keep.

        ``densities`` is the per-block density series, one entry per
        extracted block, in extraction order. Implementations must return a
        value within ``[1, len(densities)]`` (or ``0`` for an empty series).
        """


class SecondDifferenceRule(TruncationRule):
    """The paper's rule: cut at ``argmin_i Δ²φ(G(S_i))``.

    With 0-based block indices the argmin over interior points ``i`` maps to
    keeping blocks ``0..i`` inclusive, i.e. ``k̂ = i + 1`` blocks: the elbow
    block is the last one retained. Series shorter than 3 are kept whole.

    Faithfulness note: because the argmin ranges over *interior* points the
    rule can never return ``k̂ = 1`` — it presumes the paper's regime of a
    plateau of several comparably-dense fraud blocks followed by a cliff
    (Fig. 1). On a convex, cliff-less decay it degenerates toward keeping
    most blocks; that is a property of Definition 3 itself, reproduced
    as-published.
    """

    name = "second_difference"

    def truncate(self, densities: Sequence[float]) -> int:
        n = len(densities)
        if n == 0:
            return 0
        deltas = second_differences(densities)
        if deltas.size == 0:
            return n
        interior = int(np.argmin(deltas))  # 0-based offset into interior points
        return interior + 2  # interior j ↦ block index j+1 ↦ keep j+2 blocks


class FixedKRule(TruncationRule):
    """Keep a fixed number of blocks (the ENSEMFDET-FIX-K baseline)."""

    name = "fixed_k"

    def __init__(self, k: int) -> None:
        if k < 1:
            raise DetectionError(f"fixed k must be >= 1, got {k}")
        self.k = int(k)

    def truncate(self, densities: Sequence[float]) -> int:
        return min(self.k, len(densities))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FixedKRule(k={self.k})"
