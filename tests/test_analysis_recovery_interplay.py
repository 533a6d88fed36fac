"""Analyzer x recovery interplay: the resilience and race rules must
agree with the recovery machinery — firing when lineage recovery /
checkpoint barriers are armed into a hazardous combination, and staying
quiet on every cell of the golden-trace matrix (whose fault cells retry
without recovery or checkpoints)."""

import pytest

from repro.analysis import analyze, analyze_runtime
from repro.faults import (
    CheckpointPolicy,
    FaultPlan,
    NodeFault,
    RetryPolicy,
    TaskCrash,
)
from repro.hardware import minotauro
from repro.perfmodel import TaskCost
from repro.runtime import DataRef, Runtime, Task, TaskGraph
from repro.tracing import Stage

from tests.golden_matrix import golden_cases


def _cost() -> TaskCost:
    return TaskCost(
        serial_flops=1e6,
        parallel_flops=1e9,
        parallel_items=1e6,
        arithmetic_intensity=10.0,
        input_bytes=1_000_000,
        output_bytes=1_000_000,
        host_device_bytes=2_000_000,
        gpu_memory_bytes=4_000_000,
        host_memory_bytes=4_000_000,
    )


def _barrier_graph() -> TaskGraph:
    """fan-in -> barrier -> fan-out: the WF303 shape."""
    graph = TaskGraph()
    heads = []
    for i in range(3):
        head = Task(
            task_id=i,
            name="map",
            inputs=(),
            outputs=(DataRef(size_bytes=8, name=f"m{i}"),),
            cost=_cost(),
        )
        graph.add_task(head)
        heads.append(head)
    barrier = Task(
        task_id=3,
        name="reduce",
        inputs=tuple(h.outputs[0] for h in heads),
        outputs=(DataRef(size_bytes=8, name="r"),),
        cost=_cost(),
    )
    graph.add_task(barrier)
    for i in range(4, 7):
        graph.add_task(
            Task(
                task_id=i,
                name="post",
                inputs=barrier.outputs,
                outputs=(DataRef(size_bytes=8, name=f"p{i}"),),
                cost=_cost(),
            )
        )
    return graph


_NODE_FAULTS = FaultPlan(node_faults=(NodeFault(node=1, at_time=0.2),))


class TestRecoveryArmsTheRules:
    def test_wf303_fires_with_recovery_but_no_checkpoint(self):
        report = analyze(
            _barrier_graph(),
            minotauro(),
            fault_plan=_NODE_FAULTS,
            retry_policy=RetryPolicy(max_attempts=3, recover_lost_blocks=True),
        )
        [finding] = [d for d in report.warnings if d.code == "WF303"]
        assert 3 in finding.task_ids  # the reduce barrier

    def test_wf303_silenced_by_checkpoint_policy(self):
        report = analyze(
            _barrier_graph(),
            minotauro(),
            fault_plan=_NODE_FAULTS,
            retry_policy=RetryPolicy(max_attempts=3, recover_lost_blocks=True),
            checkpoint_policy=CheckpointPolicy(every_levels=1),
        )
        assert "WF303" not in report.codes()

    def test_doomed_barrier_raises_read_after_free(self):
        plan = FaultPlan(
            node_faults=(NodeFault(node=1, at_time=0.2),),
            task_crashes=(
                TaskCrash(
                    task_id=3,
                    stage=Stage.SERIAL_FRACTION,
                    attempts=(1, 2, 3),
                ),
            ),
        )
        report = analyze(
            _barrier_graph(),
            minotauro(),
            fault_plan=plan,
            retry_policy=RetryPolicy(max_attempts=3, recover_lost_blocks=True),
        )
        [finding] = [d for d in report.warnings if d.code == "WF402"]
        assert finding.task_ids == (3,)
        # Checkpointing the barrier removes the hazard: the lineage walk
        # stops at the durable copy before reaching the doomed task.
        protected = analyze(
            _barrier_graph(),
            minotauro(),
            fault_plan=plan,
            retry_policy=RetryPolicy(max_attempts=3, recover_lost_blocks=True),
            checkpoint_policy=CheckpointPolicy(
                every_levels=1, task_types=frozenset({"reduce"})
            ),
        )
        assert "WF402" not in protected.codes()


class TestGoldenMatrixStaysQuiet:
    """The 18 golden cells are the determinism anchor: the WF4xx race
    rules must not fire on any of them (their fault cells retry without
    lineage recovery or checkpoints)."""

    @pytest.mark.parametrize(
        "case", golden_cases(), ids=lambda case: case.key
    )
    def test_no_race_findings(self, case):
        runtime = Runtime(case.config)
        case.build(runtime)
        report = analyze_runtime(runtime)
        races = {c for c in report.codes() if c.startswith("WF4")}
        assert races == set()
        # Nor may any cell be statically *broken*: errors would mean the
        # golden fixtures encode an illegal execution.
        assert not report.has_errors
