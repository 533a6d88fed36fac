"""Tests for the fault-injection subsystem (repro.faults) end to end."""

import pytest

from repro.analysis import analyze
from repro.faults import (
    FaultPlan,
    GpuOomFault,
    NodeFault,
    RetryPolicy,
    Straggler,
    TaskCrash,
)
from repro.hardware import minotauro
from repro.perfmodel import TaskCost
from repro.runtime import Runtime, RuntimeConfig, SchedulingPolicy
from repro.tracing import (
    ATTEMPT_OK,
    Stage,
    dump_trace,
    fault_metrics,
    load_trace,
)
from tests.trace_invariants import assert_trace_invariants


def _cost(serial=1e9, parallel=0.0, gpu_mem=0):
    return TaskCost(
        serial_flops=serial,
        parallel_flops=parallel,
        parallel_items=1e6 if parallel else 0.0,
        arithmetic_intensity=10.0,
        input_bytes=10**6,
        output_bytes=10**5,
        host_device_bytes=2 * 10**5 if parallel else 0,
        gpu_memory_bytes=gpu_mem,
    )


def _fan_out_in(rt, width=8, cost=None):
    """width parallel tasks feeding one reduce task."""
    cost = cost or _cost()
    outs = []
    for i in range(width):
        ref = rt.register_input(10**6, name=f"in{i}")
        outs.extend(rt.submit(name="stage", inputs=[ref], cost=cost))
    rt.submit(name="reduce", inputs=outs, cost=cost)


def _run(plan=None, policy=None, nodes=4, build=_fan_out_in, **cfg):
    config = RuntimeConfig(
        cluster=minotauro(num_nodes=nodes),
        fault_plan=plan,
        retry_policy=policy,
        **cfg,
    )
    rt = Runtime(config)
    build(rt)
    return rt.run()


class TestFaultPlan:
    def test_empty_plan(self):
        plan = FaultPlan()
        assert plan.is_empty
        assert plan.crash_stage_for(0, "t", 1) is None
        assert not plan.gpu_oom_for(0, "t", 1)
        assert plan.straggler_factor("t", 0) == 1.0

    def test_crash_matching(self):
        crash = TaskCrash(task_id=3, attempts=(1, 2))
        assert crash.applies(3, "x", 1)
        assert crash.applies(3, "x", 2)
        assert not crash.applies(3, "x", 3)
        assert not crash.applies(4, "x", 1)

    def test_crash_by_type(self):
        crash = TaskCrash(task_type="stage")
        assert crash.applies(99, "stage", 1)
        assert not crash.applies(99, "other", 1)

    def test_crash_needs_selector(self):
        with pytest.raises(ValueError):
            TaskCrash()
        with pytest.raises(ValueError):
            TaskCrash(task_id=1, attempts=())
        with pytest.raises(ValueError):
            TaskCrash(task_id=1, attempts=(0,))

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            FaultPlan(crash_probability=1.5)
        with pytest.raises(ValueError):
            FaultPlan(crash_probability=-0.1)

    def test_probabilistic_crashes_are_keyed_not_ordered(self):
        plan = FaultPlan(crash_probability=0.5, seed=42)
        first = [plan.crash_stage_for(t, "x", 1) for t in range(50)]
        second = [plan.crash_stage_for(t, "x", 1) for t in reversed(range(50))]
        assert first == list(reversed(second))
        assert any(stage is not None for stage in first)
        assert any(stage is None for stage in first)

    def test_explicit_crash_wins_over_probability(self):
        plan = FaultPlan(
            task_crashes=[TaskCrash(task_id=0, stage=Stage.SERIALIZATION)],
            crash_probability=1.0,
        )
        assert plan.crash_stage_for(0, "x", 1) is Stage.SERIALIZATION

    def test_straggler_composition(self):
        plan = FaultPlan(
            stragglers=[
                Straggler(factor=2.0, node=1),
                Straggler(factor=3.0, task_type="stage"),
            ]
        )
        assert plan.straggler_factor("stage", 1) == 6.0
        assert plan.straggler_factor("stage", 0) == 3.0
        assert plan.straggler_factor("other", 1) == 2.0
        assert plan.straggler_factor("other", 0) == 1.0

    def test_straggler_must_slow_down(self):
        with pytest.raises(ValueError):
            Straggler(factor=0.5)

    def test_node_fault_validation(self):
        with pytest.raises(ValueError):
            NodeFault(node=-1, at_time=1.0)
        with pytest.raises(ValueError):
            NodeFault(node=0, at_time=-1.0)

    def test_json_round_trip(self):
        plan = FaultPlan(
            task_crashes=[
                TaskCrash(task_id=3, stage=Stage.DESERIALIZATION, attempts=(1, 2))
            ],
            node_faults=[NodeFault(node=1, at_time=0.5)],
            gpu_ooms=[GpuOomFault(task_type="stage")],
            stragglers=[Straggler(factor=2.0, node=0)],
            crash_probability=0.25,
            seed=99,
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_from_hand_written_json(self):
        plan = FaultPlan.from_json(
            '{"node_faults": [{"node": 2, "at_time": 1.5}], "seed": 7}'
        )
        assert plan.node_faults == (NodeFault(node=2, at_time=1.5),)
        assert plan.seed == 7


class TestRetryPolicy:
    def test_defaults_retry(self):
        policy = RetryPolicy()
        assert policy.retries_enabled
        assert policy.max_attempts >= 2

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_jitter=1.0)

    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(
            backoff_base=1.0, backoff_factor=2.0, backoff_max=5.0
        )
        delays = [policy.backoff_delay(n) for n in (1, 2, 3, 4)]
        assert delays == [1.0, 2.0, 4.0, 5.0]

    def test_jitter_deterministic_per_key(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_jitter=0.5)
        plan = FaultPlan(seed=11)
        a = policy.backoff_delay(1, plan.rng_for("backoff", 7, 1))
        b = policy.backoff_delay(1, plan.rng_for("backoff", 7, 1))
        other = policy.backoff_delay(1, plan.rng_for("backoff", 8, 1))
        assert a == b
        assert a != other
        assert 0.5 <= a <= 1.5


class TestCrashRecovery:
    def test_crash_retries_and_recovers(self):
        plan = FaultPlan(task_crashes=[TaskCrash(task_id=2)])
        result = _run(plan)
        assert not result.failed
        assert result.attempts[2] == 2
        assert result.attempts[0] == 1
        outcomes = [a.outcome for a in result.trace.attempts_of(2)]
        assert outcomes == ["crash", ATTEMPT_OK]
        assert_trace_invariants(result.trace)

    def test_failure_stage_recorded(self):
        plan = FaultPlan(task_crashes=[TaskCrash(task_id=2)])
        result = _run(plan)
        failures = [
            r for r in result.trace.stages if r.stage is Stage.FAILURE
        ]
        assert len(failures) == 1
        assert failures[0].task_id == 2

    def test_exhausted_retries_cascade_to_descendants(self):
        plan = FaultPlan(
            task_crashes=[TaskCrash(task_id=0, attempts=(1, 2, 3))]
        )
        result = _run(plan, RetryPolicy(max_attempts=3, backoff_base=0.01))
        assert result.failed
        # Task 0 and the reduce task (id 8) fail; siblings complete.
        assert result.failed_task_ids == (0, 8)
        assert len(result.trace.tasks) == 7
        assert result.attempts[0] == 3

    def test_single_attempt_policy_fails_fast(self):
        plan = FaultPlan(task_crashes=[TaskCrash(task_id=1)])
        result = _run(plan, RetryPolicy(max_attempts=1))
        assert result.failed
        assert result.attempts[1] == 1

    def test_retry_wait_recorded_off_core(self):
        plan = FaultPlan(task_crashes=[TaskCrash(task_id=2)])
        result = _run(plan, RetryPolicy(max_attempts=2, backoff_base=0.5))
        waits = [r for r in result.trace.stages if r.stage is Stage.RETRY_WAIT]
        assert len(waits) == 1
        assert waits[0].node == -1 and waits[0].core == -1
        assert waits[0].duration == pytest.approx(0.5)

    def test_recovered_makespan_at_least_makespan(self):
        plan = FaultPlan(task_crashes=[TaskCrash(task_id=2)])
        result = _run(plan)
        assert result.recovered_makespan >= result.makespan

    def test_crash_by_task_type_hits_every_instance(self):
        plan = FaultPlan(task_crashes=[TaskCrash(task_type="stage")])
        result = _run(plan)
        assert not result.failed
        assert all(result.attempts[i] == 2 for i in range(8))


class TestNodeFailure:
    def test_node_loss_recovers_via_retry_and_blacklist(self):
        # The ISSUE acceptance scenario: kill a node mid-run; the workflow
        # completes, affected tasks show >1 attempt, reruns are identical.
        plan = FaultPlan(node_faults=[NodeFault(node=1, at_time=0.05)], seed=7)
        policy = RetryPolicy(max_attempts=3, backoff_base=0.1)
        first = _run(plan, policy)
        second = _run(plan, policy)

        assert not first.failed
        retried = [t for t, n in first.attempts.items() if n > 1]
        assert retried, "node loss at 0.05s must interrupt resident tasks"
        node_failures = {
            a.outcome for a in first.trace.attempts if a.outcome != ATTEMPT_OK
        }
        assert node_failures == {"node_failure"}
        # Nothing lands on the dead node afterwards.
        assert all(
            a.node != 1
            for a in first.trace.attempts
            if a.start > 0.05 + 1e-9
        )
        assert first.makespan == second.makespan
        assert first.attempts == second.attempts
        assert_trace_invariants(first.trace)

    def test_all_nodes_dead_fails_remaining_tasks(self):
        plan = FaultPlan(
            node_faults=[NodeFault(node=n, at_time=0.01) for n in range(4)]
        )
        result = _run(plan, RetryPolicy(max_attempts=2, backoff_base=0.01))
        assert result.failed
        done = {t.task_id for t in result.trace.tasks}
        assert set(result.failed_task_ids) | done == set(range(9))

    def test_node_fault_out_of_range_rejected(self):
        plan = FaultPlan(node_faults=[NodeFault(node=9, at_time=1.0)])
        with pytest.raises(ValueError, match="kills node 9"):
            _run(plan, nodes=4)

    def test_kill_before_start_only_reroutes(self):
        # Node dies at t=0: nothing is resident yet, so no retries — the
        # scheduler simply never uses it.
        plan = FaultPlan(node_faults=[NodeFault(node=2, at_time=0.0)])
        result = _run(plan)
        assert not result.failed
        assert all(n == 1 for n in result.attempts.values())
        assert all(t.node != 2 for t in result.trace.tasks)


class TestGpuFaults:
    def test_runtime_gpu_oom_falls_back_to_cpu(self):
        cost = _cost(parallel=1e10, gpu_mem=10**6)
        plan = FaultPlan(gpu_ooms=[GpuOomFault(task_id=3)])

        def build(rt):
            _fan_out_in(rt, cost=cost)

        result = _run(plan, use_gpu=True, build=build)
        assert not result.failed
        assert result.attempts[3] == 2
        attempts = result.trace.attempts_of(3)
        assert attempts[0].outcome == "gpu_oom" and attempts[0].used_gpu
        assert attempts[1].outcome == ATTEMPT_OK and not attempts[1].used_gpu

    def test_gpu_oom_without_fallback_retries_on_gpu(self):
        cost = _cost(parallel=1e10, gpu_mem=10**6)
        plan = FaultPlan(gpu_ooms=[GpuOomFault(task_id=3)])

        def build(rt):
            _fan_out_in(rt, cost=cost)

        policy = RetryPolicy(
            max_attempts=3, backoff_base=0.01, gpu_fallback_to_cpu=False
        )
        result = _run(plan, policy, use_gpu=True, build=build)
        assert not result.failed
        assert result.trace.attempts_of(3)[1].used_gpu


class TestDeterminismAndPurity:
    def test_no_plan_identical_to_empty_plan(self):
        plain = _run(None)
        empty = _run(FaultPlan())
        assert plain.makespan == empty.makespan
        a = [(t.task_id, t.start, t.end, t.node, t.core) for t in plain.trace.tasks]
        b = [(t.task_id, t.start, t.end, t.node, t.core) for t in empty.trace.tasks]
        assert a == b

    def test_no_attempt_records_without_plan(self):
        result = _run(None)
        assert result.trace.attempts == []
        assert not result.failed
        assert result.attempts == {i: 1 for i in range(9)}

    def test_straggler_slows_only_matching_node(self):
        base = _run(None)
        slowed = _run(
            FaultPlan(stragglers=[Straggler(factor=3.0)]),
        )
        assert slowed.makespan > base.makespan

    def test_jitter_and_faults_compose_deterministically(self):
        plan = FaultPlan(crash_probability=0.2, seed=5)
        kwargs = dict(jitter_sigma=0.1, jitter_seed=3)
        a = _run(plan, **kwargs)
        b = _run(plan, **kwargs)
        assert a.makespan == b.makespan
        assert a.attempts == b.attempts


class TestTraceExportAndMetrics:
    def _faulty_result(self):
        plan = FaultPlan(task_crashes=[TaskCrash(task_id=2)])
        return _run(plan, RetryPolicy(max_attempts=2, backoff_base=0.2))

    def test_round_trip_preserves_attempts(self, tmp_path):
        result = self._faulty_result()
        path = tmp_path / "trace.jsonl"
        dump_trace(result.trace, path)
        loaded = load_trace(path)
        assert len(loaded.attempts) == len(result.trace.attempts)
        assert loaded.attempt_counts() == result.trace.attempt_counts()
        assert [a.outcome for a in loaded.attempts_of(2)] == [
            "crash",
            ATTEMPT_OK,
        ]

    def test_fault_metrics_split_goodput_and_waste(self):
        result = self._faulty_result()
        metrics = fault_metrics(result.trace)
        assert metrics.num_failures == 1
        assert metrics.retried_tasks == 1
        assert metrics.wasted_seconds > 0
        assert metrics.goodput_seconds > metrics.wasted_seconds
        assert 0 < metrics.goodput_ratio < 1
        assert metrics.retry_wait_seconds == pytest.approx(0.2)

    def test_fault_metrics_clean_run(self):
        metrics = fault_metrics(_run(None).trace)
        assert metrics.num_failures == 0
        assert metrics.goodput_ratio == 1.0
        assert metrics.wasted_seconds == 0.0


class TestAnalysisRules:
    def _graph(self):
        rt = Runtime(RuntimeConfig())
        ref = rt.register_input(100, name="a")
        rt.submit("t", [ref], cost=_cost())
        return rt

    def test_wf301_fires_on_no_retry_policy_with_plan(self):
        rt = self._graph()
        plan = FaultPlan(task_crashes=[TaskCrash(task_id=0)])
        config = RuntimeConfig(
            fault_plan=plan, retry_policy=RetryPolicy(max_attempts=1)
        )
        assert "WF301" in analyze(rt.graph, config).codes()

    def test_wf301_silent_without_explicit_policy(self):
        rt = self._graph()
        plan = FaultPlan(task_crashes=[TaskCrash(task_id=0)])
        report = analyze(rt.graph, RuntimeConfig(fault_plan=plan))
        assert "WF301" not in report.codes()

    def test_wf301_silent_for_empty_plan(self):
        rt = self._graph()
        config = RuntimeConfig(
            fault_plan=FaultPlan(), retry_policy=RetryPolicy(max_attempts=1)
        )
        assert "WF301" not in analyze(rt.graph, config).codes()

    def test_analyze_reads_fault_config(self):
        config = RuntimeConfig(
            fault_plan=FaultPlan(task_crashes=[TaskCrash(task_id=0)]),
            retry_policy=RetryPolicy(max_attempts=1),
        )
        rt = Runtime(config)
        ref = rt.register_input(100, name="a")
        rt.submit("t", [ref], cost=_cost())
        report = analyze(rt.graph, rt.config)
        assert "WF301" in report.codes()

    def test_validate_refuses_ghost_node_plan(self):
        # The config itself refuses a plan that kills a node the cluster
        # lacks, before any workflow is built.
        plan = FaultPlan(node_faults=[NodeFault(node=64, at_time=1.0)])
        with pytest.raises(ValueError, match="kills node 64"):
            RuntimeConfig(fault_plan=plan)


class TestCli:
    def test_run_with_faults_flag(self, capsys):
        from repro.cli import main

        spec = '{"node_faults": [{"node": 1, "at_time": 0.5}], "seed": 7}'
        code = main(
            [
                "run",
                "--algorithm",
                "kmeans",
                "--grid",
                "8",
                "--iterations",
                "1",
                "--faults",
                spec,
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "faults: recovered" in out

    def test_run_with_faults_file(self, tmp_path, capsys):
        from repro.cli import main

        plan = FaultPlan(task_crashes=[TaskCrash(task_type="partial_sum")])
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        code = main(
            [
                "run",
                "--algorithm",
                "kmeans",
                "--grid",
                "8",
                "--iterations",
                "1",
                "--faults",
                f"@{path}",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "task(s) retried" in out
