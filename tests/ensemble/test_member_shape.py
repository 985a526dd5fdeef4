"""One member shape: every plan is a parent edge-id list, every detection names parent nodes.

Each sampler of the registry fits a JD-like graph in this process and on
the process pool over each parent transport. Every vote table equals the
one recorded before node plans joined the kernel batch, and every member's
FDET result and parent node ids equal the reference engine's bit for bit.
Members that leave the batch (every reference-engine member, a member the
kernel cannot allocate) name the same parent nodes as the kernel. Edge and
node ids outside the parent are refused before anything reads them, on
both engines and both backends, as a typed member failure.
"""

from __future__ import annotations

import dataclasses
import hashlib
import re
from pathlib import Path

import numpy as np
import pytest

from repro.datasets import make_jd_dataset
from repro.ensemble import EnsemFDet, EnsemFDetConfig, detect_on_plans, run_members, runner
from repro.errors import GraphValidationError
from repro.faults import arm, disarm
from repro.fdet import FdetConfig, PeelEngine, _native, batched
from repro.fdet._native import native_available
from repro.graph import GraphStore
from repro.parallel import FaultTolerance
from repro.sampling import (
    OneSideNodeSampler,
    RandomEdgeSampler,
    SamplePlan,
    Side,
    StableEdgeSampler,
    TwoSideNodeSampler,
    resolve_rng,
)

pytestmark = pytest.mark.skipif(
    not native_available(), reason="native kernel unavailable (no C compiler)"
)

#: the registry's samplers, by registry name (``ses`` on stripes small
#: enough that the graph holds several dozen)
SAMPLERS = {
    "res": lambda: RandomEdgeSampler(0.3),
    "ons_user": lambda: OneSideNodeSampler(0.3, Side.USER),
    "ons_merchant": lambda: OneSideNodeSampler(0.3, Side.MERCHANT),
    "tns": lambda: TwoSideNodeSampler(0.5),
    "ses": lambda: StableEdgeSampler(0.3, stripe=64),
}

#: each sampler's vote table (votes and appearances), recorded when node
#: plans still ran member by member and reference detections still reached
#: the tally through a label lookup; both engines and both backends agreed
FINGERPRINTS = {
    "res": "0bd25884279d0d56",
    "ons_user": "73ee682fcad9e695",
    "ons_merchant": "e38dd7240451a249",
    "tns": "1da1a0a21bd6f5d4",
    "ses": "ca9eda04491a8885",
}

BACKENDS = [("serial", "local"), ("process", "file"), ("process", "mmap")]


@pytest.fixture(autouse=True)
def _clean_faults():
    disarm()
    yield
    disarm()


@pytest.fixture(scope="module")
def jd_graph():
    return make_jd_dataset(1, scale=0.1, seed=3).graph


def config(name, engine=PeelEngine.FAST, **overrides):
    return EnsemFDetConfig(
        sampler=SAMPLERS[name](),
        n_samples=5,
        seed=11,
        fdet=FdetConfig(max_blocks=8, engine=engine),
        track_appearances=True,
        **overrides,
    )


@pytest.fixture(scope="module")
def reference_fits(jd_graph):
    """Each sampler's reference-engine fit, in this process."""
    return {
        name: EnsemFDet(config(name, PeelEngine.REFERENCE)).fit(jd_graph) for name in SAMPLERS
    }


def table_fingerprint(table) -> str:
    """A digest of every vote and appearance count of ``table``."""
    digest = hashlib.sha256()
    for votes in (
        table.user_votes,
        table.merchant_votes,
        table.user_appearances,
        table.merchant_appearances,
    ):
        if votes is not None:
            for array in votes.voted():
                digest.update(np.asarray(array, dtype="<i8").tobytes())
        digest.update(b"|")
    return digest.hexdigest()[:16]


def assert_same_members(got, expected):
    """Bitwise equal FDET results and parent node ids, member by member."""
    assert len(got) == len(expected)
    for left, right in zip(got, expected):
        lres, rres = left.result, right.result
        assert lres.k_hat == rres.k_hat
        assert lres.densities.tobytes() == rres.densities.tobytes()
        for name in ("user_labels", "merchant_labels", "block_rows", "edge_counts"):
            assert np.array_equal(getattr(lres, name), getattr(rres, name))
        for name in ("detected_user_indices", "detected_merchant_indices"):
            ids = getattr(left, name)
            assert ids.dtype == np.int64 and np.array_equal(ids, getattr(right, name))


@pytest.mark.parametrize("executor,transport", BACKENDS, ids=[t for _, t in BACKENDS])
@pytest.mark.parametrize("name", sorted(SAMPLERS))
def test_registry_sampler_fit_matches_its_fingerprint_and_the_reference(
    jd_graph, reference_fits, name, executor, transport, tmp_path
):
    parent = jd_graph
    if transport == "file":
        GraphStore.from_graph(jd_graph).save(tmp_path / "g.store")
        parent = GraphStore.open(tmp_path / "g.store")
    result = EnsemFDet(config(name, executor=executor, n_workers=2)).fit(parent)
    assert result.retry_log[0]["transport"] == transport
    assert table_fingerprint(result.vote_table) == FINGERPRINTS[name]
    reference = reference_fits[name]
    assert table_fingerprint(reference.vote_table) == FINGERPRINTS[name]
    assert_same_members(result.sample_detections, reference.sample_detections)


@pytest.mark.parametrize("name", ["ons_user", "ons_merchant", "tns"])
def test_node_plans_run_in_one_kernel_call_per_attempt(jd_graph, monkeypatch, name):
    detect_many = batched.detect_many
    calls = []

    def spy(graph, plans, *args, **kwargs):
        calls.append([plan.kind for plan in plans])
        return detect_many(graph, plans, *args, **kwargs)

    monkeypatch.setattr(batched, "detect_many", spy)
    arm("raise:point=member.detect,index=1")  # round 0 loses member 1, round 1 retries it
    result = EnsemFDet(config(name, tolerance=FaultTolerance(max_retries=1))).fit(jd_graph)
    assert not result.failed_members
    assert len(result.retry_log) == 2
    assert calls == [["nodes"] * 4, ["nodes"]]
    assert table_fingerprint(result.vote_table) == FINGERPRINTS[name]


def batch_arg(name: str) -> int:
    """The position of parameter ``name`` in the C prototype of ``repro_fdet_batch``."""
    source = Path(_native._SOURCE_PATH).read_text()
    params = source.split("int64_t repro_fdet_batch(", 1)[1].split(")", 1)[0]
    names = [re.findall(r"\w+", param)[-1] for param in params.split(",")]
    assert len(names) == len(batched.batch_kernels().fdet_batch.argtypes)
    return names.index(name)


def refuse_members(monkeypatch, refused):
    """Make the kernel report an allocation failure (status -1) for the
    members at positions ``refused`` of every multi-member call."""
    kernels = batched.batch_kernels()
    fdet_batch = kernels.fdet_batch
    n_members_at, out_status_at = batch_arg("n_members"), batch_arg("out_status")

    def failing(*args):
        fdet_batch(*args)
        n_members, out_status = args[n_members_at], args[out_status_at]
        if n_members > 1:
            out_status[[m for m in refused if m < n_members]] = -1

    wrapped = dataclasses.replace(kernels, fdet_batch=failing)
    monkeypatch.setattr(batched, "batch_kernels", lambda: wrapped)


@pytest.mark.parametrize("name", sorted(SAMPLERS))
def test_members_off_the_batch_name_the_kernels_parent_nodes(
    jd_graph, reference_fits, monkeypatch, name
):
    kernel = EnsemFDet(config(name)).fit(jd_graph)
    reference = reference_fits[name]
    assert_same_members(reference.sample_detections, kernel.sample_detections)
    assert table_fingerprint(reference.vote_table) == table_fingerprint(kernel.vote_table)

    refuse_members(monkeypatch, refused=[1, 3])
    batch_plans, reached = [], []
    detect_many, per_member = batched.detect_many, runner._member_detection

    def spy_batch(graph, plans, *args):
        batch_plans.append(plans)
        return detect_many(graph, plans, *args)

    def spy_member(fdet, graph, plan, window):
        reached.append(plan)
        return per_member(fdet, graph, plan, window)

    monkeypatch.setattr(batched, "detect_many", spy_batch)
    monkeypatch.setattr(runner, "_member_detection", spy_member)
    refused = EnsemFDet(config(name)).fit(jd_graph)
    # one kernel call, and only the members it refused took the per-member path
    (plans,) = batch_plans
    assert len(plans) == 5 and len(reached) == 2
    assert reached[0] is plans[1] and reached[1] is plans[3]
    assert_same_members(refused.sample_detections, kernel.sample_detections)
    assert table_fingerprint(refused.vote_table) == table_fingerprint(kernel.vote_table)


def bad_plans(graph):
    """Plans naming an id outside ``graph``, by what is wrong with them."""

    def edges(*ids):
        return SamplePlan(kind="edges", edge_indices=np.array(ids, dtype=np.int64))

    def users(*ids):
        return SamplePlan(kind="nodes", users=np.array(ids, dtype=np.int64))

    return {
        "edge-at-the-end": edges(0, graph.n_edges),
        "edge-far-out": edges(5_000_000),
        "edge-negative": edges(3, -1),
        "node-negative": users(0, -1),
        "node-too-large": users(0, graph.n_users),
    }


BAD_PLANS = ["edge-at-the-end", "edge-far-out", "edge-negative", "node-negative", "node-too-large"]


def plan_digest(plan) -> str:
    """A digest of a plan's kind and ids, equal in a forked worker."""
    digest = hashlib.sha256(plan.kind.encode())
    for ids in (plan.edge_indices, plan.users, plan.merchants):
        if ids is not None:
            digest.update(np.ascontiguousarray(ids, dtype=np.int64).tobytes())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("executor", ["serial", "process"])
@pytest.mark.parametrize("engine", PeelEngine.ALL)
@pytest.mark.parametrize("bad", BAD_PLANS)
def test_plan_ids_outside_the_parent_fail_only_their_member(
    jd_graph, bad, engine, executor, monkeypatch, tmp_path
):
    fdet = FdetConfig(max_blocks=6, engine=engine)
    plans = RandomEdgeSampler(0.2).plan_many(jd_graph, 3, resolve_rng(4))
    plans.insert(1, bad_plans(jd_graph)[bad])
    # every plan that reaches the per-member path, here or in a forked worker
    reached = tmp_path / "per_member.txt"
    per_member = runner._member_detection

    def spy(fdet, graph, plan, window):
        with open(reached, "a") as fh:
            fh.write(plan_digest(plan) + "\n")
        return per_member(fdet, graph, plan, window)

    monkeypatch.setattr(runner, "_member_detection", spy)
    run = run_members(
        jd_graph,
        plans,
        fdet,
        mode=executor,
        n_workers=2,
        tolerance=FaultTolerance(max_retries=0, min_quorum=0.5),
    )
    (failure,) = run.failures
    assert (failure.index, failure.kind) == (1, "error")
    assert failure.error.startswith("GraphValidationError")
    assert run.retry_log[0]["backend"] == executor
    if engine == PeelEngine.FAST:
        # the bad plan leaves the kernel batch alone: its batch-mates peel in it
        assert reached.read_text().split() == [plan_digest(plans[1])]
    else:
        assert sorted(reached.read_text().split()) == sorted(map(plan_digest, plans))
    good = [plans[0], *plans[2:]]
    expected = detect_on_plans(jd_graph, good, dataclasses.replace(fdet, engine=PeelEngine.REFERENCE))
    assert_same_members(run.survivors(), expected)
    with pytest.raises(GraphValidationError, match="outside the graph"):
        detect_on_plans(jd_graph, plans, fdet, mode=executor, n_workers=2)


def test_detect_many_leaves_only_the_bad_plan_empty(jd_graph):
    plans = RandomEdgeSampler(0.2).plan_many(jd_graph, 3, resolve_rng(4))
    bad = bad_plans(jd_graph)
    plans[1:1] = [bad["edge-far-out"], bad["node-negative"]]
    fdet = FdetConfig(max_blocks=6)
    native = batched.detect_many(jd_graph, plans, fdet)
    assert [detection is None for detection in native] == [False, True, True, False, False]
    good = [plans[0], *plans[3:]]
    expected = detect_on_plans(jd_graph, good, dataclasses.replace(fdet, engine=PeelEngine.REFERENCE))
    assert_same_members([native[0], *native[3:]], expected)
    assert batched.detect_many(jd_graph, plans[1:3], fdet) == [None, None]
