"""Detector-protocol adapters for block-extraction detectors.

FDET and Fraudar both emit an ordered sequence of dense blocks. Their
uniform :class:`~repro.detectors.base.Detection` view is built the same
way for both:

* ``operating_points`` are the cumulative block unions ``k = 1..K`` (the
  paper's "polyline" operating points),
* ``ranked_users`` is extraction order — the first time a user appears in
  a block decides its rank (exactly the ranking the scenario harness used
  for Fraudar's precision@k), and
* ``user_scores`` encode that rank positionally (``n_ranked - position``,
  0 for never-extracted users), so score-derived consumers agree with the
  explicit ranking.
"""

from __future__ import annotations

import numpy as np

from ..baselines import FraudarDetector
from ..fdet import Block, Fdet, FdetConfig
from ..graph import BipartiteGraph
from ..parallel import Timer
from .base import Detection
from .specs import DetectorContext, FdetSpec, FraudarSpec

__all__ = ["FdetBlockDetector", "FraudarBlockDetector", "detection_from_blocks"]


def _extraction_ranking(blocks: tuple[Block, ...], attribute: str) -> list[int]:
    """Labels in first-extraction order, deduplicated."""
    ranked: list[int] = []
    seen: set[int] = set()
    for block in blocks:
        for label in getattr(block, attribute).tolist():
            if label not in seen:
                seen.add(label)
                ranked.append(label)
    return ranked


def _rank_scores(labels: np.ndarray, ranked: list[int]) -> np.ndarray:
    """Positional scores: first-ranked label scores highest, unranked 0."""
    score_of = {label: len(ranked) - position for position, label in enumerate(ranked)}
    return np.array(
        [score_of.get(int(label), 0) for label in labels.tolist()], dtype=np.float64
    )


def detection_from_blocks(
    spec: str,
    graph: BipartiteGraph,
    blocks: tuple[Block, ...],
    seconds: float,
    meta: dict,
) -> Detection:
    """Uniform :class:`Detection` view of an ordered block sequence."""
    points: list[tuple[float, np.ndarray]] = []
    for n_blocks in range(1, len(blocks) + 1):
        union = np.unique(
            np.concatenate([block.user_labels for block in blocks[:n_blocks]])
        )
        points.append((float(n_blocks), union))
    ranked_users = _extraction_ranking(blocks, "user_labels")
    ranked_merchants = _extraction_ranking(blocks, "merchant_labels")
    return Detection(
        spec=spec,
        user_labels=graph.user_labels,
        user_scores=_rank_scores(graph.user_labels, ranked_users),
        merchant_labels=graph.merchant_labels,
        merchant_scores=_rank_scores(graph.merchant_labels, ranked_merchants),
        operating_points=tuple(points),
        ranked_users=np.array(ranked_users, dtype=np.int64),
        blocks=blocks,
        seconds=seconds,
        meta={"n_blocks": len(blocks), **meta},
    )


class FdetBlockDetector:
    """``fdet`` — one FDET run on the full graph, truncated at ``k̂``."""

    def __init__(self, spec: str, config: FdetSpec, context: DetectorContext) -> None:
        self.spec = spec
        # min_block_edges only when set: FdetConfig keeps its own default
        kwargs = (
            {"min_block_edges": config.min_block_edges}
            if config.min_block_edges is not None
            else {}
        )
        self.config = FdetConfig(
            max_blocks=config.max_blocks if config.max_blocks is not None else context.max_blocks,
            engine=config.engine if config.engine is not None else context.engine,
            **kwargs,
        )

    def fit(self, graph: BipartiteGraph) -> Detection:
        with Timer() as timer:
            result = Fdet(self.config).detect(graph)
        return detection_from_blocks(
            self.spec,
            graph,
            result.blocks,
            seconds=timer.elapsed,
            meta={"k_hat": result.k_hat, "n_blocks_extracted": result.n_blocks},
        )


class FraudarBlockDetector:
    """``fraudar`` — the multi-block Fraudar baseline."""

    def __init__(self, spec: str, config: FraudarSpec, context: DetectorContext) -> None:
        self.spec = spec
        kwargs = (
            {"min_block_edges": config.min_block_edges}
            if config.min_block_edges is not None
            else {}
        )
        self.detector = FraudarDetector(
            n_blocks=config.n_blocks if config.n_blocks is not None else context.max_blocks,
            engine=config.engine if config.engine is not None else context.engine,
            **kwargs,
        )

    def fit(self, graph: BipartiteGraph) -> Detection:
        with Timer() as timer:
            result = self.detector.detect(graph)
        return detection_from_blocks(
            self.spec, graph, result.blocks, seconds=timer.elapsed, meta={}
        )
