"""Every scenario must flow through both detection paths, identically.

The acceptance contract of the scenario subsystem: each registered attack
shape is runnable through the cold :meth:`EnsemFDet.fit` *and* through the
streaming :meth:`IncrementalEnsemFDet.update` replay (fit on the honest
background, one update per attack batch), and with a shared
:class:`StableEdgeSampler` + seed the two must land on bit-identical vote
tables and detections.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ensemble import EnsemFDet, EnsemFDetConfig, IncrementalEnsemFDet
from repro.fdet import FdetConfig
from repro.sampling import StableEdgeSampler
from repro.scenarios import BatchKind, SCENARIO_NAMES, accumulate_batches, make_scenario


def _config(n_samples: int = 8) -> EnsemFDetConfig:
    return EnsemFDetConfig(
        sampler=StableEdgeSampler(0.4, stripe=32),
        n_samples=n_samples,
        fdet=FdetConfig(max_blocks=8),
        executor="serial",
        seed=11,
    )


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_cold_fit_equals_staged_replay(name):
    instance = make_scenario(name).generate(intensity=1.0, scale=0.12, seed=11)

    cold = EnsemFDet(_config()).fit(instance.dataset.graph)

    warm = IncrementalEnsemFDet(_config())
    warm.fit(accumulate_batches(instance.batches[:1]))
    for batch, kind in zip(instance.attack_batches, instance.batch_kinds[1:]):
        if kind == BatchKind.CLEANUP:
            # the replay skips cleanup batches, as the drift grid's window
            # with no bound does — which is why the cold fit uses the
            # kinds-aware graph
            continue
        report = warm.update(batch.users, batch.merchants, batch.weights)
        assert report.n_new_edges == batch.n_edges

    assert warm.graph == instance.dataset.graph
    assert dict(warm.vote_table.user_votes) == dict(cold.vote_table.user_votes)
    assert dict(warm.vote_table.merchant_votes) == dict(cold.vote_table.merchant_votes)
    for threshold in (1, 3, 5, 8):
        assert np.array_equal(
            warm.detect(threshold).user_labels, cold.detect(threshold).user_labels
        )


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_detection_speaks_scenario_label_space(name):
    """Detected users are labels of the scenario graph, so the blacklist
    (global labels) evaluates them directly."""
    instance = make_scenario(name).generate(intensity=1.0, scale=0.12, seed=4)
    result = EnsemFDet(_config()).fit(instance.dataset.graph)
    detection = result.detect(1)
    graph_users = set(instance.dataset.graph.user_labels.tolist())
    assert set(detection.user_labels.tolist()) <= graph_users
