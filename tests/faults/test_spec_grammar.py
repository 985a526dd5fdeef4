"""The ``name:key=value,...`` splitter that fault and detector specs share.

:func:`repro.faults.plan.split_spec` is the one implementation; the detector
registry reaches it through :func:`repro.detectors.specs.split_spec`. Every
case runs through both callers, each of which must raise its own error
class and call the spec by its own noun.
"""

from __future__ import annotations

import pytest

from repro.detectors import specs
from repro.errors import DetectionError, ReproError
from repro.faults import plan


@pytest.fixture(
    params=[
        (plan.split_spec, ReproError, "fault"),
        (specs.split_spec, DetectionError, "detector"),
    ],
    ids=["fault", "detector"],
)
def caller(request):
    """``(split, error class, noun)`` of one caller of the shared splitter."""
    return request.param


def assert_rejected(caller, spec, message):
    split, error, noun = caller
    with pytest.raises(ReproError) as excinfo:
        split(spec)
    # exactly the caller's class: a fault spec never raises DetectionError
    assert type(excinfo.value) is error
    assert f"{noun} spec" in str(excinfo.value)
    assert message in str(excinfo.value)


@pytest.mark.parametrize("spec", ["name", "name:", "  Name :  "])
def test_bare_name_has_no_params(caller, spec):
    split, _, _ = caller
    assert split(spec) == ("name", {})


def test_params_keep_their_order(caller):
    split, _, _ = caller
    name, params = split("fdet:max_blocks=4,engine=fast,seed=0")
    assert name == "fdet"
    assert list(params.items()) == [("max_blocks", "4"), ("engine", "fast"), ("seed", "0")]


def test_names_and_keys_fold_case_values_keep_it(caller):
    split, _, _ = caller
    assert split("FDet:Engine=Fast") == ("fdet", {"engine": "Fast"})


def test_whitespace_and_blank_items_ignored(caller):
    split, _, _ = caller
    assert split(" a : x = 1 , , y=2 ,") == ("a", {"x": "1", "y": "2"})


@pytest.mark.parametrize("spec", ["", "   ", None])
def test_empty_spec_rejected(caller, spec):
    assert_rejected(caller, spec, "empty")


@pytest.mark.parametrize("spec", [":x=1", "  :"])
def test_missing_name_rejected(caller, spec):
    assert_rejected(caller, spec, "has no name")


@pytest.mark.parametrize("spec", ["a:x", "a:x=", "a:=1", "a:x=1,y"])
def test_item_without_key_and_value_rejected(caller, spec):
    assert_rejected(caller, spec, "malformed parameter")


@pytest.mark.parametrize("spec", ["a:x=1,x=2", "a:x=1,X=2", "a:x=1, x =1"])
def test_repeated_key_rejected(caller, spec):
    assert_rejected(caller, spec, "duplicate parameter")
