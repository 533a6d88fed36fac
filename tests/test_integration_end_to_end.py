"""End-to-end integration tests crossing multiple subsystems."""

import io

import numpy as np
import pytest

from repro.algorithms import KMeansWorkflow, MatmulWorkflow, SyntheticWorkflow
from repro.core.advisor import WorkflowAdvisor
from repro.core.persistence import load_result, save_result, to_jsonable
from repro.data import DatasetSpec, paper_datasets
from repro.hardware import StorageKind
from repro.runtime import Runtime, RuntimeConfig, SchedulingPolicy
from repro.tracing import (
    decompose_overheads,
    dump_trace,
    gantt,
    load_trace,
    parallel_task_metrics,
    user_code_metrics,
)


class TestTracePipeline:
    """Run -> export -> reload -> analyse must be lossless."""

    @pytest.fixture(scope="class")
    def result(self):
        rt = Runtime(RuntimeConfig(use_gpu=True))
        KMeansWorkflow(
            paper_datasets()["kmeans_10gb"], grid_rows=32, n_clusters=10,
            iterations=2,
        ).build(rt)
        return rt.run()

    def test_metrics_survive_roundtrip(self, result):
        buffer = io.StringIO()
        dump_trace(result.trace, buffer)
        buffer.seek(0)
        reloaded = load_trace(buffer)
        original = user_code_metrics(result.trace)["partial_sum"]
        restored = user_code_metrics(reloaded)["partial_sum"]
        assert restored == original
        assert parallel_task_metrics(reloaded, {"partial_sum"}).level_wall_times == \
            parallel_task_metrics(result.trace, {"partial_sum"}).level_wall_times

    def test_decomposition_survives_roundtrip(self, result):
        buffer = io.StringIO()
        dump_trace(result.trace, buffer)
        buffer.seek(0)
        reloaded = load_trace(buffer)
        assert decompose_overheads(reloaded) == decompose_overheads(result.trace)

    def test_gantt_renders_from_reloaded_trace(self, result):
        buffer = io.StringIO()
        dump_trace(result.trace, buffer)
        buffer.seek(0)
        text = gantt(load_trace(buffer), width=40, max_rows=5)
        assert "Gantt" in text


class TestAdvisorOverNewWorkloads:
    def test_advisor_recommends_for_synthetic(self):
        dataset = DatasetSpec("syn_e2e", rows=2_000_000, cols=100)
        advisor = WorkflowAdvisor()
        recommendation = advisor.recommend(
            lambda grid: SyntheticWorkflow(
                dataset, grid_rows=grid, parallel_ratio=0.6
            ),
            grids=(64, 8),
            storages=(StorageKind.LOCAL,),
            policies=(SchedulingPolicy.GENERATION_ORDER,),
        )
        assert recommendation.best.parallel_task_time is not None
        labels = {c.label for c in recommendation.candidates}
        assert len(labels) == len(recommendation.candidates)

    def test_hybrid_plan_feeds_runtime_config(self):
        dataset = paper_datasets()["matmul_8gb"]
        plan = WorkflowAdvisor().plan_hybrid(MatmulWorkflow(dataset, grid=4))
        assert plan == {"matmul_func"}
        rt = Runtime(RuntimeConfig(use_gpu=True, gpu_task_types=plan))
        MatmulWorkflow(dataset, grid=4).build(rt)
        result = rt.run()
        gpu_types = {t.task_type for t in result.trace.tasks if t.used_gpu}
        assert gpu_types == set(plan)


class TestResultPersistenceFlow:
    def test_figure_save_load_matches_in_memory(self, tmp_path):
        from repro.core.experiments import run_fig8

        result = run_fig8(grids=(4, 2))
        path = save_result(result, tmp_path / "fig8.json")
        loaded = load_result(path)["result"]
        in_memory = to_jsonable(result)
        assert loaded == in_memory

    def test_scheduler_comparison_recorded(self, tmp_path):
        datasets = paper_datasets()
        record = {}
        for policy in SchedulingPolicy:
            rt = Runtime(RuntimeConfig(scheduling=policy))
            KMeansWorkflow(
                datasets["kmeans_10gb"], grid_rows=32, n_clusters=10,
                iterations=1,
            ).build(rt)
            record[policy.value] = rt.run().makespan
        path = save_result(record, tmp_path / "schedulers.json")
        loaded = load_result(path)["result"]
        assert set(loaded) == {p.value for p in SchedulingPolicy}
        assert all(v > 0 for v in loaded.values())


class TestLifoVsFifoBehaviour:
    def test_lifo_prefers_new_tasks_in_trace_order(self):
        # Build two waves of tasks where wave-2 tasks are generated last;
        # with more tasks than cores, LIFO should start late tasks before
        # some early ones, while FIFO preserves generation order.
        from repro.perfmodel import TaskCost

        def build(policy):
            rt = Runtime(RuntimeConfig(scheduling=policy))
            cost = TaskCost(
                serial_flops=16e9, parallel_flops=0, parallel_items=0,
                arithmetic_intensity=0, input_bytes=0, output_bytes=0,
                host_device_bytes=0, gpu_memory_bytes=0,
            )
            for i in range(200):
                ref = rt.register_input(0, name=f"in{i}")
                rt.submit(name="w", inputs=[ref], cost=cost)
            result = rt.run()
            start_order = [
                t.task_id for t in sorted(result.trace.tasks, key=lambda t: t.start)
            ]
            return start_order

        fifo_order = build(SchedulingPolicy.GENERATION_ORDER)
        lifo_order = build(SchedulingPolicy.LIFO)
        assert fifo_order == sorted(fifo_order)
        assert lifo_order != sorted(lifo_order)


class TestRealAndSimulatedAgree:
    def test_same_dag_from_both_backends(self):
        from repro.runtime.runtime import Backend

        dataset = DatasetSpec("agree", rows=120, cols=6)

        def graph_shape(backend):
            rt = Runtime(RuntimeConfig(backend=backend))
            KMeansWorkflow(dataset, grid_rows=4, n_clusters=3, iterations=2).build(
                rt, materialize=backend is Backend.IN_PROCESS
            )
            return (rt.graph.num_tasks, rt.graph.width, rt.graph.height)

        assert graph_shape(Backend.IN_PROCESS) == graph_shape(Backend.SIMULATED)
