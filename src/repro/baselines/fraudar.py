"""Fraudar (Hooi et al., KDD 2016) — the strongest baseline in the paper.

Greedy densest-block detection on the **full** graph under the log-weighted
suspiciousness metric, extended (as in the paper's experiments, Table III)
to extract a fixed number ``K`` of blocks sequentially by removing each
detected block's edges and re-running the greedy. That is FDET's block loop
with refreshed weights and no truncation, so the blocks are
``Fdet(...).detect(graph).all_blocks``.

Two properties matter for the reproduction:

* it is *sequential* — no sampling, no parallelism — so its wall-clock grows
  with the full graph (the Table-III comparison), and
* its operating points are the cumulative unions of whole blocks, whose
  sizes vary wildly — producing the discrete "polyline" curves of Fig. 4
  that motivate EnsemFDet's smooth threshold control.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DetectionError
from ..fdet.density import DensityMetric, LogWeightedDensity
from ..fdet.fdet import Block, Fdet, FdetConfig
from ..fdet.peeling import PeelEngine
from ..graph import BipartiteGraph

__all__ = ["FraudarDetector", "FraudarResult"]


@dataclass(frozen=True)
class FraudarResult:
    """All blocks Fraudar extracted, in extraction (density) order."""

    blocks: tuple[Block, ...]

    def detected_users(self, n_blocks: int | None = None) -> np.ndarray:
        """Union of user labels over the first ``n_blocks`` blocks."""
        limit = len(self.blocks) if n_blocks is None else min(n_blocks, len(self.blocks))
        parts = [block.user_labels for block in self.blocks[:limit]]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(parts))

    def detected_merchants(self, n_blocks: int | None = None) -> np.ndarray:
        """Union of merchant labels over the first ``n_blocks`` blocks."""
        limit = len(self.blocks) if n_blocks is None else min(n_blocks, len(self.blocks))
        parts = [block.merchant_labels for block in self.blocks[:limit]]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(parts))

    def cumulative_detections(self) -> list[tuple[int, np.ndarray]]:
        """Operating points ``(blocks used, detected user labels)``.

        These are Fraudar's only available trade-off knob — the diamond
        points of the paper's Fig. 3/4.
        """
        points: list[tuple[int, np.ndarray]] = []
        for n_blocks in range(1, len(self.blocks) + 1):
            points.append((n_blocks, self.detected_users(n_blocks)))
        return points


class FraudarDetector:
    """Multi-block Fraudar.

    Parameters
    ----------
    n_blocks:
        How many dense blocks to extract (the paper fixes ``K = 30``).
    metric:
        Suspiciousness metric; defaults to the log-weighted density with the
        reference implementation's ``c = 5``.
    min_block_edges:
        Stop early when the next block would have fewer edges.
    engine:
        Peeling backend (see :class:`repro.fdet.PeelEngine`); both engines
        return identical blocks.
    """

    def __init__(
        self,
        n_blocks: int = 30,
        metric: DensityMetric | None = None,
        min_block_edges: int = 1,
        engine: str = PeelEngine.DEFAULT,
    ) -> None:
        if n_blocks < 1:
            raise DetectionError(f"n_blocks must be >= 1, got {n_blocks}")
        self.n_blocks = n_blocks
        self.metric = metric or LogWeightedDensity()
        self.min_block_edges = min_block_edges
        self.engine = engine
        # validates min_block_edges and engine at construction
        self._fdet = Fdet(
            FdetConfig(
                metric=self.metric,
                max_blocks=n_blocks,
                min_block_edges=min_block_edges,
                engine=engine,
            )
        )

    def detect(self, graph: BipartiteGraph) -> FraudarResult:
        """Extract up to ``n_blocks`` dense blocks from the full graph."""
        return FraudarResult(blocks=self._fdet.detect(graph).all_blocks)
