"""Registry round-trip and determinism property tests.

The contracts the registry promises:

* every registered spec string parses, and its canonical form
  re-serialises to itself (round-trip stability);
* parsing is case-insensitive and accepts dicts and tuples;
* the same spec + context on a fixed-seed graph produces a bitwise
  identical :class:`Detection` across two independent runs, for every
  registered detector (the SVD baselines pin ARPACK's starting vector —
  see :func:`repro.baselines.spoken.svd_start_vector` — exactly so this
  holds).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import toy_dataset
from repro.detectors import (
    DETECTOR_NAMES,
    DetectorContext,
    available_detectors,
    canonical_detector_spec,
    detector_info,
    make_detector,
    parse_detector_spec,
    split_detector_specs,
)
from repro.errors import DetectionError

#: canonical spec strings — one bare + one parameterised per detector
CANONICAL_SPECS = [
    "ensemfdet",
    "ensemfdet:n=6,ratio=0.5",
    "ensemfdet:n=6,sampler=res",
    "ensemfdet:n=6,ratio=0.4,sampler=ses,stripe=32,max_blocks=5",
    "incremental",
    "incremental:n=6,ratio=0.5,stripe=16",
    "fdet",
    "fdet:max_blocks=4,engine=reference",
    "fraudar",
    "fraudar:n_blocks=3",
    "fraudar:n_blocks=3,min_block_edges=2",
    "spoken",
    "spoken:components=3",
    "fbox",
    "fbox:components=3,min_degree=1,buckets=5",
    "degree",
    "degree:weighted=1",
]

#: every registered family must be bit-reproducible run to run
DETERMINISTIC_SPECS = [
    "ensemfdet:n=6,ratio=0.5",
    "ensemfdet:n=6,sampler=res",
    "incremental:n=6,ratio=0.5,stripe=16",
    "fdet:max_blocks=4",
    "fraudar:n_blocks=3",
    "spoken:components=3",
    "fbox:components=3,min_degree=1",
    "degree",
    "degree:weighted=1",
]

CONTEXT = DetectorContext(seed=0, n_samples=4, sample_ratio=0.5, stripe=32, max_blocks=4)


@pytest.fixture(scope="module")
def graph():
    return toy_dataset().graph


class TestRegistryNames:
    def test_all_seven_registered(self):
        assert DETECTOR_NAMES == (
            "ensemfdet", "incremental", "fdet", "fraudar", "spoken", "fbox", "degree"
        )
        assert available_detectors() == list(DETECTOR_NAMES)

    def test_unknown_name(self):
        with pytest.raises(DetectionError, match="unknown detector"):
            detector_info("oracle")
        with pytest.raises(DetectionError, match="unknown detector"):
            make_detector("oracle:k=1")

    def test_capability_flags(self):
        assert detector_info("incremental").streaming
        assert not detector_info("ensemfdet").streaming
        assert detector_info("ensemfdet").parity == detector_info("incremental").parity
        for name in ("fdet", "fraudar", "spoken", "fbox", "degree"):
            assert detector_info(name).parity is None

    def test_info_accepts_full_spec(self):
        assert detector_info("fraudar:n_blocks=8").name == "fraudar"


class TestSpecRoundTrip:
    @pytest.mark.parametrize("spec", CANONICAL_SPECS)
    def test_canonical_specs_reserialize_to_themselves(self, spec):
        assert canonical_detector_spec(spec) == spec

    @pytest.mark.parametrize("spec", CANONICAL_SPECS)
    def test_parse_serialize_parse_is_stable(self, spec):
        _, config = parse_detector_spec(spec)
        _, reparsed = parse_detector_spec(canonical_detector_spec(spec))
        assert config == reparsed

    def test_case_and_order_insensitive(self):
        assert canonical_detector_spec("FRAUDAR:Min_Block_Edges=2,N_BLOCKS=3") == (
            "fraudar:n_blocks=3,min_block_edges=2"
        )

    def test_string_param_values_case_insensitive(self):
        # regression: 'sampler=SES' must hit the stable-sampler alias (and
        # honour stripe) exactly like 'sampler=ses'
        assert canonical_detector_spec("ensemfdet:sampler=SES") == "ensemfdet:sampler=ses"
        upper = make_detector("ensemfdet:sampler=SES,stripe=16", CONTEXT)
        lower = make_detector("ensemfdet:sampler=ses,stripe=16", CONTEXT)
        assert upper.config.sampler.stripe == lower.config.sampler.stripe == 16
        assert upper.parity_fingerprint() == lower.parity_fingerprint()

    def test_dict_and_tuple_specs(self):
        assert canonical_detector_spec(("degree", {"weighted": True})) == "degree:weighted=1"
        assert canonical_detector_spec({"name": "fbox", "components": 3}) == (
            "fbox:components=3"
        )

    def test_default_params_are_omitted(self):
        assert canonical_detector_spec("fraudar:") == "fraudar"

    def test_float_params_keep_full_precision(self):
        # regression: canonicalisation must never drift the config —
        # format(v, 'g') truncated to 6 significant digits
        spec = "ensemfdet:ratio=0.1234567891"
        assert canonical_detector_spec(spec) == spec
        detector = make_detector(spec, CONTEXT)
        assert detector.config.sampler.ratio == 0.1234567891

    def test_registered_extension_is_discoverable(self):
        from dataclasses import dataclass

        from repro.detectors import (
            Detection,
            DetectorInfo,
            DetectorSpec,
            register_detector,
        )

        @dataclass(frozen=True)
        class NullSpec(DetectorSpec):
            pass

        class NullDetector:
            def __init__(self, spec, config, context):
                self.spec = spec

            def fit(self, graph):
                import numpy as np

                return Detection(
                    spec=self.spec,
                    user_labels=graph.user_labels,
                    user_scores=np.zeros(graph.n_users),
                )

        register_detector(DetectorInfo("nulltest", NullSpec, NullDetector, "noop"))
        try:
            assert "nulltest" in available_detectors()
            assert detector_info("nulltest").description == "noop"
            with pytest.raises(DetectionError, match="already registered"):
                register_detector(
                    DetectorInfo("nulltest", NullSpec, NullDetector, "noop")
                )
        finally:
            from repro.detectors.registry import _REGISTRY

            _REGISTRY.pop("nulltest", None)

    def test_malformed_specs_rejected(self):
        for bad in ("fraudar:n_blocks", "fraudar:=3", "spoken:components=3,components=4"):
            with pytest.raises(DetectionError):
                parse_detector_spec(bad)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(DetectionError, match="unknown parameter"):
            parse_detector_spec("degree:bogus=1")

    def test_bad_types_rejected(self):
        with pytest.raises(DetectionError, match="not a valid int"):
            parse_detector_spec("fraudar:n_blocks=three")
        with pytest.raises(DetectionError, match="not a boolean"):
            parse_detector_spec("degree:weighted=maybe")

    @pytest.mark.parametrize(
        "spec", ["ensemfdet:executor=thread", "incremental:executor=bogus"]
    )
    def test_unknown_executor_rejected(self, spec):
        with pytest.raises(DetectionError, match="unknown executor"):
            make_detector(spec, CONTEXT)

    def test_stripe_with_non_stable_sampler_rejected(self):
        # regression: an explicit stripe must never be silently dropped
        with pytest.raises(DetectionError, match="stable edge sampler"):
            make_detector("ensemfdet:sampler=res,stripe=8", CONTEXT)


def _assert_detection_equal(a, b):
    assert a.spec == b.spec
    np.testing.assert_array_equal(a.user_labels, b.user_labels)
    np.testing.assert_array_equal(a.user_scores, b.user_scores)
    assert (a.ranked_users is None) == (b.ranked_users is None)
    if a.ranked_users is not None:
        np.testing.assert_array_equal(a.ranked_users, b.ranked_users)
    assert (a.operating_points is None) == (b.operating_points is None)
    if a.operating_points is not None:
        assert len(a.operating_points) == len(b.operating_points)
        for (ta, la), (tb, lb) in zip(a.operating_points, b.operating_points):
            assert ta == tb
            np.testing.assert_array_equal(la, lb)
    np.testing.assert_array_equal(a.ranking(), b.ranking())


class TestDeterminism:
    @pytest.mark.parametrize("spec", DETERMINISTIC_SPECS)
    def test_two_runs_bitwise_identical(self, graph, spec):
        first = make_detector(spec, CONTEXT).fit(graph)
        second = make_detector(spec, CONTEXT).fit(graph)
        assert first.spec == canonical_detector_spec(spec)
        _assert_detection_equal(first, second)

    def test_context_seed_changes_ensemble(self, graph):
        a = make_detector("ensemfdet:n=6,ratio=0.5", CONTEXT).fit(graph)
        b = make_detector(
            "ensemfdet:n=6,ratio=0.5",
            DetectorContext(seed=99, n_samples=4, sample_ratio=0.5, stripe=32, max_blocks=4),
        ).fit(graph)
        assert not np.array_equal(a.user_scores, b.user_scores)

    def test_spec_seed_overrides_context(self, graph):
        via_spec = make_detector("ensemfdet:n=6,ratio=0.5,seed=7", CONTEXT).fit(graph)
        via_context = make_detector(
            "ensemfdet:n=6,ratio=0.5",
            DetectorContext(seed=7, n_samples=4, sample_ratio=0.5, stripe=32, max_blocks=4),
        ).fit(graph)
        np.testing.assert_array_equal(via_spec.user_scores, via_context.user_scores)


class TestSplitDetectorSpecs:
    def test_plain_names(self):
        assert split_detector_specs("ensemfdet,incremental") == [
            "ensemfdet", "incremental"
        ]

    def test_params_stay_attached(self):
        assert split_detector_specs("ensemfdet:n=8,sampler=ses,degree") == [
            "ensemfdet:n=8,sampler=ses", "degree"
        ]

    def test_mixed_parameterised_specs(self):
        assert split_detector_specs(
            "degree:weighted=1,fraudar:n_blocks=3,min_block_edges=2,spoken"
        ) == ["degree:weighted=1", "fraudar:n_blocks=3,min_block_edges=2", "spoken"]

    def test_blank_segments_dropped(self):
        assert split_detector_specs(" ensemfdet , ,degree ") == ["ensemfdet", "degree"]

    def test_comma_for_colon_typo_recovers(self):
        # 'degree,weighted=1' can only mean 'degree:weighted=1' — a bare
        # name followed by a parameter starts its parameter list
        assert split_detector_specs("degree,weighted=1") == ["degree:weighted=1"]
        assert split_detector_specs("ensemfdet,n=8,sampler=ses,degree") == [
            "ensemfdet:n=8,sampler=ses", "degree"
        ]
