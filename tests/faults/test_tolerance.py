"""Fault-tolerant fan-out: retry, degradation, quorum — and bitwise recovery."""

from __future__ import annotations

import pytest

from repro.datasets import uniform_bipartite
from repro.errors import InjectedFault, QuorumError, WorkerCrashError
from repro.faults import arm, disarm
from repro.faults.chaos import leaked_spills
from repro.ensemble import EnsemFDet, EnsemFDetConfig, detect_on_plans
from repro.fdet import FdetConfig
from repro.graph import GraphStore
from repro.parallel import FaultTolerance
from repro.sampling import RandomEdgeSampler, resolve_rng


@pytest.fixture(autouse=True)
def _clean_faults():
    disarm()
    yield
    disarm()


@pytest.fixture(scope="module")
def graph():
    return uniform_bipartite(60, 30, 300, rng=0)


def _config(executor="serial", n_workers=None, **tolerance_kwargs):
    return EnsemFDetConfig(
        sampler=RandomEdgeSampler(0.4),
        n_samples=6,
        fdet=FdetConfig(max_blocks=6),
        executor=executor,
        n_workers=n_workers,
        seed=3,
        tolerance=FaultTolerance(**tolerance_kwargs),
    )


def _process_parent(graph, transport, tmp_path):
    """A file-backed parent ships its own file; a resident one is spilled."""
    if transport == "mmap":
        return graph
    path = tmp_path / "g.store"
    GraphStore.from_graph(graph).save(path)
    return GraphStore.open(path)


def _tables_equal(a, b) -> bool:
    return (
        a.n_samples == b.n_samples
        and dict(a.user_votes) == dict(b.user_votes)
        and dict(a.merchant_votes) == dict(b.merchant_votes)
    )


class TestToleranceValidation:
    def test_rejects_bad_values(self):
        from repro.errors import ReproError

        for kwargs in (
            {"member_timeout": 0},
            {"max_retries": -1},
            {"min_quorum": 0.0},
            {"min_quorum": 1.5},
        ):
            with pytest.raises(ReproError):
                FaultTolerance(**kwargs)

    def test_required_survivors(self):
        assert FaultTolerance(min_quorum=0.5).required_survivors(6) == 3
        assert FaultTolerance(min_quorum=0.5).required_survivors(7) == 4
        assert FaultTolerance(min_quorum=0.01).required_survivors(10) == 1
        assert FaultTolerance.strict().required_survivors(8) == 8

    def test_archived_backoff_and_degrade_are_ignored(self):
        """Retry rounds start at once and run in the parent (bar timed-out
        rounds): neither is a setting, and an archive's values are dropped."""
        for retired in ({"backoff_seconds": 0.5}, {"degrade": False}):
            with pytest.raises(TypeError):
                FaultTolerance(**retired)
        archived = {"member_timeout": 2.5, "max_retries": 1, "backoff_seconds": 0.25,
                    "degrade": False, "min_quorum": 0.75}
        expected = FaultTolerance(member_timeout=2.5, max_retries=1, min_quorum=0.75)
        assert FaultTolerance.from_dict(archived) == expected
        assert set(expected.as_dict()) == {"member_timeout", "max_retries", "min_quorum"}

    def test_dict_roundtrip(self):
        tolerance = FaultTolerance(member_timeout=2.5, max_retries=1, min_quorum=0.75)
        assert FaultTolerance.from_dict(tolerance.as_dict()) == tolerance
        assert FaultTolerance.from_dict(None) == FaultTolerance()


class TestTransientRecovery:
    def test_raise_fault_recovers_bitwise_identical(self, graph):
        reference = EnsemFDet(_config()).fit(graph)
        arm("raise:point=member.detect,index=2")
        result = EnsemFDet(_config()).fit(graph)
        assert not result.failed_members
        assert _tables_equal(result.vote_table, reference.vote_table)
        # the fault is visible in the retry log, not the result
        assert result.retry_log[0]["failed"] == [2]
        assert result.retry_log[1]["members"] == [2]
        assert result.retry_log[1]["failed"] == []

    def test_retry_log_is_deterministic(self, graph):
        plan = "raise:point=member.detect,index=1;raise:point=member.detect,index=4"
        logs, tables = [], []
        for _ in range(2):
            arm(plan)
            result = EnsemFDet(_config()).fit(graph)
            logs.append(result.retry_log)
            tables.append(result.vote_table)
        assert logs[0] == logs[1]
        assert _tables_equal(tables[0], tables[1])

    def test_strict_tolerance_raises_original_error(self, graph):
        arm("raise:point=member.detect,index=0")
        with pytest.raises(InjectedFault):
            EnsemFDet(
                EnsemFDetConfig(
                    sampler=RandomEdgeSampler(0.4),
                    n_samples=6,
                    seed=3,
                    tolerance=FaultTolerance.strict(),
                )
            ).fit(graph)

    def test_fit_identical_under_every_backend_with_faults(self, graph):
        reference = EnsemFDet(_config()).fit(graph)
        for executor in ("serial", "process"):
            arm("raise:point=member.detect,index=0;raise:point=member.detect,index=5")
            result = EnsemFDet(_config(executor=executor)).fit(graph)
            assert _tables_equal(result.vote_table, reference.vote_table), executor


class TestQuorumDegradation:
    def test_permanent_failure_degrades_with_metadata(self, graph):
        arm("raise:point=member.detect,index=0,attempt=-1,times=-1")
        result = EnsemFDet(_config()).fit(graph)
        assert [f.index for f in result.failed_members] == [0]
        assert result.failed_members[0].kind == "error"
        assert result.failed_members[0].attempts == 3  # 1 try + 2 retries
        assert result.n_samples == 5
        assert result.effective_quorum == pytest.approx(5 / 6)

    def test_threshold_rescaled_to_survivors(self, graph):
        arm("raise:point=member.detect,index=0,attempt=-1,times=-1")
        result = EnsemFDet(_config()).fit(graph)
        # T=6 of N=6 becomes ceil(6·5/6)=5 of the 5 survivors
        assert result.effective_threshold(6) == 5
        assert result.effective_threshold(1) == 1
        detection = result.detect(6)
        assert detection.n_users >= 0  # threshold 6 > survivors would match nothing

    def test_below_quorum_raises(self, graph):
        plan = ";".join(
            f"raise:point=member.detect,index={i},attempt=-1,times=-1"
            for i in range(4)
        )
        arm(plan)
        with pytest.raises(QuorumError, match="2/6"):
            EnsemFDet(_config()).fit(graph)

    def test_min_quorum_one_rejects_any_loss(self, graph):
        arm("raise:point=member.detect,index=3,attempt=-1,times=-1")
        with pytest.raises(InjectedFault):
            EnsemFDet(_config(min_quorum=1.0)).fit(graph)

    @pytest.mark.parametrize("transport", ["file", "mmap"])
    def test_process_failure_degrades_like_serial(self, graph, transport, tmp_path):
        """A member failing on the pool is retried in the parent, then
        dropped: the survivors' table equals the serial fit's."""
        arm("raise:point=member.detect,index=0,attempt=-1,times=-1")
        reference = EnsemFDet(_config()).fit(graph)
        before = leaked_spills()
        result = EnsemFDet(_config(executor="process", n_workers=2)).fit(
            _process_parent(graph, transport, tmp_path)
        )
        assert [f.index for f in result.failed_members] == [0]
        assert result.failed_members[0].attempts == 3
        assert [entry["backend"] for entry in result.retry_log] == [
            "process",
            "serial",
            "serial",
        ]
        assert result.retry_log[0]["transport"] == transport
        assert _tables_equal(result.vote_table, reference.vote_table)
        assert leaked_spills() == before

    @pytest.mark.parametrize("transport", ["file", "mmap"])
    def test_process_below_quorum_raises(self, graph, transport, tmp_path):
        arm(
            ";".join(
                f"raise:point=member.detect,index={i},attempt=-1,times=-1"
                for i in range(4)
            )
        )
        parent = _process_parent(graph, transport, tmp_path)
        before = leaked_spills()
        with pytest.raises(QuorumError, match="2/6"):
            EnsemFDet(_config(executor="process", n_workers=2)).fit(parent)
        assert leaked_spills() == before


class TestProcessBackendFaults:
    def test_worker_crash_recovers_bitwise_identical(self, graph):
        reference = EnsemFDet(_config()).fit(graph)
        before = leaked_spills()
        arm("crash:point=member.detect,index=1")
        result = EnsemFDet(_config(executor="process", n_workers=2)).fit(graph)
        assert not result.failed_members
        assert _tables_equal(result.vote_table, reference.vote_table)
        kinds = result.retry_log[0]["kinds"].values()
        assert "crash" in kinds
        assert leaked_spills() == before

    def test_strict_worker_crash_raises_typed_error_and_leaks_nothing(self, graph):
        before = leaked_spills()
        arm("crash:point=member.detect,index=0")
        rng = resolve_rng(3)
        config = _config(executor="process", n_workers=2)
        plans = config.sampler.plan_many(graph, config.n_samples, rng)
        with pytest.raises(WorkerCrashError) as excinfo:
            detect_on_plans(
                graph,
                plans,
                config.fdet,
                mode="process",
                n_workers=2,
                tolerance=FaultTolerance.strict(),
            )
        assert excinfo.value.member_indices  # failed members identified
        assert leaked_spills() == before

    def test_hung_member_times_out_then_recovers(self, graph):
        reference = EnsemFDet(_config()).fit(graph)
        arm("hang:point=member.detect,index=1,seconds=20")
        config = EnsemFDetConfig(
            sampler=RandomEdgeSampler(0.4),
            n_samples=2,
            fdet=FdetConfig(max_blocks=6),
            executor="process",
            n_workers=2,
            seed=3,
            tolerance=FaultTolerance(member_timeout=1.5),
        )
        result = EnsemFDet(config).fit(graph)
        assert not result.failed_members
        assert result.retry_log[0]["kinds"]["1"] == "timeout"
        assert result.vote_table.n_samples == 2
        assert reference is not None

    def test_member_hanging_on_every_attempt_ends_as_timeout(self, graph):
        # retries of a timed-out member stay on the pool: in the parent the
        # member would sleep through its budget and the fit would hang
        arm("hang:point=member.detect,index=1,attempt=-1,times=-1,seconds=30")
        config = EnsemFDetConfig(
            sampler=RandomEdgeSampler(0.4),
            n_samples=2,
            fdet=FdetConfig(max_blocks=6),
            executor="process",
            n_workers=2,
            seed=3,
            tolerance=FaultTolerance(member_timeout=1.5, max_retries=1),
        )
        before = leaked_spills()
        result = EnsemFDet(config).fit(graph)
        assert [(f.index, f.kind, f.attempts) for f in result.failed_members] == [
            (1, "timeout", 2)
        ]
        assert [entry["backend"] for entry in result.retry_log] == ["process", "process"]
        assert result.retry_log[1]["kinds"] == {"1": "timeout"}
        assert leaked_spills() == before

    @pytest.mark.parametrize(
        "plan,timeout",
        [
            ("", None),
            ("crash:point=member.detect,index=1", None),
            ("hang:point=member.detect,index=1,seconds=20", 1.5),
        ],
        ids=["normal", "worker-crash", "timeout-kill"],
    )
    def test_spill_directory_removed_on_every_exit(self, graph, plan, timeout):
        before = leaked_spills()
        arm(plan)
        result = EnsemFDet(
            _config(executor="process", n_workers=2, member_timeout=timeout)
        ).fit(graph)
        assert result.retry_log[0]["transport"] == "mmap"  # a spill was made
        assert not result.failed_members
        assert leaked_spills() == before

    def test_store_file_map_failure_retries_in_the_parent(self, graph, tmp_path):
        # workers map the file inside their chunk, so the injected map
        # failure surfaces as kind "transport", not a broken pool — and the
        # retry round runs in the parent, which maps nothing
        reference = EnsemFDet(_config()).fit(graph)
        path = tmp_path / "g.store"
        GraphStore.from_graph(graph).save(path)
        arm("raise:point=mmap.open")
        result = EnsemFDet(_config(executor="process", n_workers=2)).fit(GraphStore.open(path))
        assert not result.failed_members
        assert _tables_equal(result.vote_table, reference.vote_table)
        assert result.retry_log[0]["transport"] == "file"
        assert "transport" in result.retry_log[0]["kinds"].values()
        assert (result.retry_log[1]["backend"], result.retry_log[1]["transport"]) == (
            "serial",
            "local",
        )
        assert leaked_spills() == []

    def test_unwritable_spill_retries_in_the_parent(self, graph, unwritable_spill):
        """A spill that cannot be written fails the whole attempt with kind
        ``transport``, as a failed map does; the parent's retry gives the
        serial fit's votes."""
        reference = EnsemFDet(_config()).fit(graph)
        result = EnsemFDet(_config(executor="process", n_workers=2)).fit(graph)
        assert not result.failed_members
        assert _tables_equal(result.vote_table, reference.vote_table)
        first, retry = result.retry_log
        assert (first["backend"], first["transport"]) == ("process", "mmap")
        assert first["kinds"] == {str(i): "transport" for i in range(6)}
        assert (retry["backend"], retry["transport"], retry["failed"]) == ("serial", "local", [])
        assert leaked_spills() == []

    def test_unwritable_spill_raises_under_strict(self, graph, unwritable_spill):
        config = _config()
        plans = config.sampler.plan_many(graph, config.n_samples, resolve_rng(config.seed))
        with pytest.raises(OSError, match="spill volume full"):
            detect_on_plans(graph, plans, config.fdet, mode="process", n_workers=2)
        assert leaked_spills() == []

    def test_unwritable_spill_leaves_a_file_backed_parent_on_the_pool(
        self, graph, unwritable_spill, tmp_path
    ):
        # only a resident parent is spilled: a store file is mapped as it is
        reference = EnsemFDet(_config()).fit(graph)
        parent = _process_parent(graph, "file", tmp_path)
        result = EnsemFDet(_config(executor="process", n_workers=2)).fit(parent)
        assert _tables_equal(result.vote_table, reference.vote_table)
        (only,) = result.retry_log
        assert (only["backend"], only["transport"], only["failed"]) == ("process", "file", [])
        assert leaked_spills() == []
