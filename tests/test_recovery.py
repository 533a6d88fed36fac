"""Lineage recovery and checkpointing tests.

Covers the recovery layer end to end:

* unit contracts of :class:`CheckpointPolicy`;
* lineage recomputation after a node failure, with and without
  checkpoints bounding the recovery depth, and the executor-vs-trace
  metrics consistency;
* the WF303 analyzer rule;
* a Hypothesis property — any single node fault on a generated DAG with
  recovery enabled and a surviving node must complete ``failed=False``;
* the determinism contract — every golden-matrix cell still reproduces
  its recorded fingerprint with the recovery machinery switched on but
  idle (fault-free cells), proving recovery is a strict opt-in.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algorithms import GeneratedDagWorkflow, KMeansWorkflow, MatmulWorkflow
from repro.analysis import analyze
from repro.data import paper_datasets
from repro.faults import CheckpointPolicy, FaultPlan, NodeFault, RetryPolicy
from repro.hardware import minotauro
from repro.perfmodel import TaskCost
from repro.runtime import Runtime, RuntimeConfig
from repro.tracing import Stage
from tests.golden_matrix import golden_cases
from tests.trace_invariants import assert_result_invariants

GOLDEN_PATH = Path(__file__).parent / "golden" / "simulator_digests.json"

RECOVERY = RetryPolicy(max_attempts=3, recover_lost_blocks=True)


def _run_generated(
    plan=None,
    policy=None,
    nodes=4,
    width=8,
    depth=6,
    seed=3,
    **cfg,
):
    config = RuntimeConfig(
        cluster=minotauro(num_nodes=nodes),
        fault_plan=plan,
        retry_policy=policy,
        **cfg,
    )
    runtime = Runtime(config)
    GeneratedDagWorkflow(
        width=width, depth=depth, fan_in=3, block_mb=4.0, seed=seed
    ).build(runtime)
    return runtime.run()


def _node_fault_at_fraction(fraction, node=1, **kwargs):
    """A NodeFault timed relative to the workload's clean makespan."""
    clean = _run_generated(**kwargs)
    return clean, FaultPlan(
        node_faults=(NodeFault(node=node, at_time=fraction * clean.makespan),)
    )


class TestCheckpointPolicy:
    def test_applies_interval(self):
        policy = CheckpointPolicy(every_levels=2)
        assert [policy.applies("t", lvl) for lvl in range(5)] == [
            False, True, False, True, False,
        ]

    def test_applies_every_level(self):
        policy = CheckpointPolicy(every_levels=1)
        assert all(policy.applies("t", lvl) for lvl in range(4))

    def test_applies_task_types(self):
        policy = CheckpointPolicy(every_levels=1, task_types={"merge"})
        assert policy.applies("merge", 0)
        assert not policy.applies("stage", 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CheckpointPolicy(every_levels=0)


class TestLineageRecovery:
    def test_node_loss_recovers_without_failure(self):
        clean, plan = _node_fault_at_fraction(0.4)
        result = _run_generated(plan=plan, policy=RECOVERY)
        assert not result.failed
        assert result.recovery_metrics.blocks_lost > 0
        assert result.recovery_metrics.tasks_resurrected > 0
        assert result.recovery_metrics.recompute_seconds > 0
        # Resurrected tasks commit twice (one record per commit), but the
        # distinct committed set must match the fault-free run exactly.
        committed = {t.task_id for t in result.trace.tasks}
        assert committed == {t.task_id for t in clean.trace.tasks}
        assert_result_invariants(result)

    @pytest.mark.parametrize("workload", ["matmul8", "kmeans_deep"])
    def test_paper_workload_node_loss_recovers(self, workload):
        """Node 1 dies at 25% of the clean makespan of a paper workload."""
        datasets = paper_datasets()
        workflow, use_gpu = {
            "matmul8": (MatmulWorkflow(datasets["matmul_8gb"], grid=8), False),
            "kmeans_deep": (
                KMeansWorkflow(datasets["kmeans_10gb"], grid_rows=64,
                               n_clusters=10, iterations=8),
                True,
            ),
        }[workload]

        def run(config):
            runtime = Runtime(config)
            workflow.build(runtime)
            return runtime.run()

        clean = run(RuntimeConfig(use_gpu=use_gpu))
        plan = FaultPlan(
            node_faults=(NodeFault(node=1, at_time=0.25 * clean.makespan),)
        )
        result = run(
            RuntimeConfig(use_gpu=use_gpu, fault_plan=plan, retry_policy=RECOVERY)
        )
        assert not result.failed
        assert result.recovery_metrics.tasks_resurrected > 0
        assert {t.task_id for t in result.trace.tasks} == {
            t.task_id for t in clean.trace.tasks
        }
        assert_result_invariants(result)

    def test_recovery_disabled_ignores_block_loss(self):
        _, plan = _node_fault_at_fraction(0.4)
        result = _run_generated(
            plan=plan, policy=RetryPolicy(max_attempts=3)
        )
        # Pre-recovery semantics: block loss is not modeled at all —
        # reads from the dead node's refs still succeed, so nothing is
        # resurrected and no RECOMPUTE marker may appear.
        assert result.recovery_metrics.tasks_resurrected == 0
        assert not any(
            s.stage is Stage.RECOMPUTE for s in result.trace.stages
        )
        assert_result_invariants(result)

    def test_resurrected_tasks_emit_recompute_markers(self):
        _, plan = _node_fault_at_fraction(0.4)
        result = _run_generated(plan=plan, policy=RECOVERY)
        markers = [
            s for s in result.trace.stages if s.stage is Stage.RECOMPUTE
        ]
        assert len(markers) == result.recovery_metrics.tasks_resurrected
        committed = {t.task_id for t in result.trace.tasks}
        assert {m.task_id for m in markers} <= committed

    def test_checkpoints_cut_recovery_depth(self):
        _, plan = _node_fault_at_fraction(0.4)
        deep = _run_generated(plan=plan, policy=RECOVERY)
        shallow = _run_generated(
            plan=plan,
            policy=RECOVERY,
            checkpoint_policy=CheckpointPolicy(every_levels=2),
        )
        assert not shallow.failed
        assert shallow.recovery_metrics.checkpoint_writes > 0
        assert shallow.recovery_metrics.checkpoint_write_seconds > 0
        assert (
            shallow.recovery_metrics.tasks_resurrected
            < deep.recovery_metrics.tasks_resurrected
        )
        # The executor's counters agree with the trace's stage rows.
        stages = [s.stage for s in shallow.trace.stages]
        assert (
            stages.count(Stage.RECOMPUTE)
            == shallow.recovery_metrics.tasks_resurrected
        )
        assert (
            stages.count(Stage.CHECKPOINT_WRITE)
            == shallow.recovery_metrics.checkpoint_writes
        )
        assert_result_invariants(shallow)

    def test_checkpoint_writes_without_faults_are_pure_overhead(self):
        clean = _run_generated()
        checkpointed = _run_generated(
            checkpoint_policy=CheckpointPolicy(every_levels=1)
        )
        assert not checkpointed.failed
        assert checkpointed.recovery_metrics.checkpoint_writes > 0
        assert checkpointed.makespan >= clean.makespan
        assert_result_invariants(checkpointed)


class TestAnalyzerRules:
    def _barrier_graph(self):
        """Fan-out -> single merge barrier -> fan-out (WF303's shape)."""
        cost = TaskCost(
            serial_flops=1e9,
            parallel_flops=0.0,
            parallel_items=0.0,
            arithmetic_intensity=10.0,
            input_bytes=10**6,
            output_bytes=10**5,
            host_device_bytes=0,
            gpu_memory_bytes=0,
        )
        runtime = Runtime(RuntimeConfig(cluster=minotauro(num_nodes=4)))
        outs = []
        for i in range(4):
            ref = runtime.register_input(10**6, name=f"in{i}")
            outs.extend(runtime.submit(name="stage", inputs=[ref], cost=cost))
        merged = runtime.submit(name="merge", inputs=outs, cost=cost)
        for _ in range(4):
            runtime.submit(name="post", inputs=list(merged), cost=cost)
        return runtime.graph

    def test_wf303_fires_without_checkpoints(self):
        graph = self._barrier_graph()
        plan = FaultPlan(node_faults=(NodeFault(node=1, at_time=1.0),))
        config = RuntimeConfig(
            cluster=minotauro(num_nodes=4), fault_plan=plan,
            retry_policy=RECOVERY,
        )
        assert "WF303" in analyze(graph, config).codes()

    def test_wf303_silenced_by_checkpoint_policy(self):
        graph = self._barrier_graph()
        plan = FaultPlan(node_faults=(NodeFault(node=1, at_time=1.0),))
        config = RuntimeConfig(
            cluster=minotauro(num_nodes=4), fault_plan=plan,
            retry_policy=RECOVERY,
            checkpoint_policy=CheckpointPolicy(every_levels=1),
        )
        assert "WF303" not in analyze(graph, config).codes()

    def test_wf303_quiet_without_node_faults(self):
        graph = self._barrier_graph()
        config = RuntimeConfig(
            cluster=minotauro(num_nodes=4), fault_plan=FaultPlan(),
            retry_policy=RECOVERY,
        )
        assert "WF303" not in analyze(graph, config).codes()


class TestRecoveryProperty:
    @given(
        node=st.integers(min_value=0, max_value=3),
        fraction=st.floats(min_value=0.05, max_value=0.95),
        width=st.integers(min_value=4, max_value=10),
        depth=st.integers(min_value=3, max_value=6),
        seed=st.integers(min_value=0, max_value=50),
        checkpoint=st.booleans(),
    )
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_single_node_fault_always_recovers(
        self, node, fraction, width, depth, seed, checkpoint
    ):
        """Any single node fault with >= 2 live nodes must be survivable:
        every block is either on a live node, checkpointed, or
        recomputable from lineage rooted at durable workflow inputs."""
        clean = _run_generated(width=width, depth=depth, seed=seed)
        plan = FaultPlan(
            node_faults=(
                NodeFault(node=node, at_time=fraction * clean.makespan),
            )
        )
        result = _run_generated(
            plan=plan,
            policy=RECOVERY,
            width=width,
            depth=depth,
            seed=seed,
            checkpoint_policy=(
                CheckpointPolicy(every_levels=2) if checkpoint else None
            ),
        )
        assert not result.failed
        assert {t.task_id for t in result.trace.tasks} == {
            t.task_id for t in clean.trace.tasks
        }
        assert_result_invariants(result)

    def test_recovery_recompute_resets_array_indegree(self):
        """Regression for the array-backed bookkeeping migration.

        Lineage recovery re-injects already-settled tasks for
        recomputation; their dependency counters must be rebuilt in the
        executor's indegree array, not left at the zero they drained to
        on first execution, or a recomputed task can dispatch before its
        recomputed inputs exist.  This is the exact falsifying example
        Hypothesis produced against an early draft of the migration."""
        clean = _run_generated(width=10, depth=4, seed=10)
        plan = FaultPlan(
            node_faults=(
                NodeFault(node=0, at_time=0.15234375 * clean.makespan),
            )
        )
        result = _run_generated(
            plan=plan, policy=RECOVERY, width=10, depth=4, seed=10
        )
        assert not result.failed
        assert {t.task_id for t in result.trace.tasks} == {
            t.task_id for t in clean.trace.tasks
        }
        assert_result_invariants(result)


class TestDeterminismContract:
    """Recovery machinery must be invisible until it is needed."""

    @pytest.fixture(scope="class")
    def recorded(self) -> dict:
        return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))

    @pytest.mark.parametrize(
        "case", golden_cases(), ids=lambda case: case.key
    )
    def test_golden_cells_with_recovery_active(self, case, recorded):
        from repro.tracing import trace_digest

        policy = case.config.retry_policy or RetryPolicy(max_attempts=3)
        armed = dataclasses.replace(policy, recover_lost_blocks=True)
        config = dataclasses.replace(case.config, retry_policy=armed)
        runtime = Runtime(config)
        case.build(runtime)
        result = runtime.run()
        assert_result_invariants(result)
        if not case.faults:
            # Fault-free: nothing is ever lost, so arming recovery must
            # not move a single timestamp — byte-identical fingerprint.
            digest = trace_digest(result.trace, result.failed_task_ids)
            assert digest == recorded[case.key]["digest"], (
                f"{case.key}: arming recover_lost_blocks perturbed a "
                "fault-free execution"
            )
        else:
            # Faulted: recovery may legitimately change the outcome; the
            # plan's node fault must now be survivable unless the crash
            # budget itself was exhausted.
            assert result.trace.attempts
