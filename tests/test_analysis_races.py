"""Block-access race rules (WF4xx): fire on the hazard, stay quiet on
every safe configuration."""

import pytest

from repro.analysis import analyze
from repro.faults import (
    CheckpointPolicy,
    FaultPlan,
    NodeFault,
    RetryPolicy,
    TaskCrash,
)
from repro.perfmodel import TaskCost
from repro.runtime import DataRef, RuntimeConfig, Task, TaskGraph
from repro.tracing import Stage


def _cost(**overrides) -> TaskCost:
    base = dict(
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
    base.update(overrides)
    return TaskCost(**base)


def _task(task_id, inputs=(), name="t", cost=None):
    outputs = (DataRef(size_bytes=8, name=f"{name}{task_id}.o0"),)
    return Task(
        task_id=task_id, name=name, inputs=tuple(inputs), outputs=outputs,
        cost=cost,
    )


def _graph(*tasks) -> TaskGraph:
    graph = TaskGraph()
    for task in tasks:
        graph.add_task(task)
    return graph


class TestReadAfterFree:
    def _plan(self, attempts=(1, 2, 3)):
        return FaultPlan(
            node_faults=(NodeFault(node=0, at_time=0.1),),
            task_crashes=(
                TaskCrash(
                    task_id=0, stage=Stage.SERIAL_FRACTION, attempts=attempts
                ),
            ),
        )

    def _graph(self):
        producer = _task(0, name="doomed", cost=_cost())
        consumer = _task(1, inputs=producer.outputs, cost=_cost())
        return _graph(producer, consumer)

    def test_wf402_fires_on_exhausted_producer(self):
        report = analyze(
            self._graph(),
            RuntimeConfig(
                fault_plan=self._plan(),
                retry_policy=RetryPolicy(max_attempts=3, recover_lost_blocks=True),
            ),
        )
        [finding] = [d for d in report.warnings if d.code == "WF402"]
        assert finding.task_ids == (0,)
        assert finding.task_type == "doomed"

    @pytest.mark.parametrize(
        "plan",
        [
            pytest.param(
                FaultPlan(
                    node_faults=(NodeFault(node=0, at_time=0.1),),
                    task_crashes=(
                        TaskCrash(task_id=0, stage=Stage.SERIAL_FRACTION,
                                  attempts=(1,)),
                        TaskCrash(task_type="doomed",
                                  stage=Stage.PARALLEL_FRACTION,
                                  attempts=(2, 3)),
                    ),
                ),
                id="split-entries",
            ),
            pytest.param(
                FaultPlan(
                    node_faults=(NodeFault(node=0, at_time=0.1),),
                    crash_probability=1.0,
                ),
                id="crash-probability",
            ),
        ],
    )
    def test_wf402_fires_when_the_plan_crashes_every_attempt(self, plan):
        # No one entry covers the budget; the executor asks the plan per
        # attempt, and every attempt it asks about dies.
        report = analyze(
            self._graph(),
            RuntimeConfig(
                fault_plan=plan,
                retry_policy=RetryPolicy(max_attempts=3, recover_lost_blocks=True),
            ),
        )
        [finding] = [d for d in report.warnings if d.code == "WF402"]
        assert finding.task_ids == (0,)

    def test_wf402_quiet_without_recovery(self):
        report = analyze(
            self._graph(),
            RuntimeConfig(
                fault_plan=self._plan(),
                retry_policy=RetryPolicy(max_attempts=3),
            ),
        )
        assert "WF402" not in report.codes()

    def test_wf402_quiet_when_budget_survives(self):
        # Crashing only attempt 1 of 3 leaves two attempts to commit.
        report = analyze(
            self._graph(),
            RuntimeConfig(
                fault_plan=self._plan(attempts=(1,)),
                retry_policy=RetryPolicy(max_attempts=3, recover_lost_blocks=True),
            ),
        )
        assert "WF402" not in report.codes()

    def test_wf402_quiet_when_producer_checkpointed(self):
        report = analyze(
            self._graph(),
            RuntimeConfig(
                fault_plan=self._plan(),
                retry_policy=RetryPolicy(max_attempts=3, recover_lost_blocks=True),
                checkpoint_policy=CheckpointPolicy(every_levels=1),
            ),
        )
        assert "WF402" not in report.codes()

    def test_wf402_quiet_without_node_faults(self):
        plan = FaultPlan(
            task_crashes=(
                TaskCrash(
                    task_id=0, stage=Stage.SERIAL_FRACTION, attempts=(1, 2, 3)
                ),
            ),
        )
        report = analyze(
            self._graph(),
            RuntimeConfig(
                fault_plan=plan,
                retry_policy=RetryPolicy(max_attempts=3, recover_lost_blocks=True),
            ),
        )
        assert "WF402" not in report.codes()


class TestCheckpointTypesExist:
    def _lint(self, task_types):
        checkpoint = CheckpointPolicy(every_levels=1, task_types=task_types)
        producer = _task(0, cost=_cost())
        return analyze(
            _graph(producer), RuntimeConfig(checkpoint_policy=checkpoint)
        )

    def test_wf404_all_types_missing(self):
        report = self._lint(frozenset({"ghost"}))
        [finding] = [d for d in report.warnings if d.code == "WF404"]
        assert "'ghost'" in finding.message
        assert "no block is ever checkpointed" in finding.message

    def test_wf404_some_types_missing(self):
        report = self._lint(frozenset({"t", "ghost"}))
        [finding] = [d for d in report.warnings if d.code == "WF404"]
        assert "'ghost'" in finding.message
        assert "no block is ever checkpointed" not in finding.message

    def test_wf404_quiet_when_types_match(self):
        report = self._lint(frozenset({"t"}))
        assert "WF404" not in report.codes()

    def test_wf404_quiet_without_type_restriction(self):
        report = self._lint(None)
        assert "WF404" not in report.codes()
