"""Tests for the in-process and simulated executors."""

import numpy as np
import pytest

from repro.algorithms import KMeansWorkflow
from repro.data import paper_datasets
from repro.hardware import (
    GpuOutOfMemoryError,
    HostOutOfMemoryError,
    StorageKind,
    cpu_only,
    minotauro,
)
from repro.perfmodel import TaskCost
from repro.runtime import Runtime, RuntimeConfig, SchedulingPolicy
from repro.runtime.runtime import Backend
from repro.tracing import Stage


def _cost(
    serial=1e9,
    parallel=0.0,
    items=0.0,
    in_bytes=10**6,
    out_bytes=10**5,
    gpu_mem=0,
    host_mem=0,
):
    return TaskCost(
        serial_flops=serial,
        parallel_flops=parallel,
        parallel_items=items,
        arithmetic_intensity=10.0,
        input_bytes=in_bytes,
        output_bytes=out_bytes,
        host_device_bytes=(in_bytes + out_bytes) if parallel else 0,
        gpu_memory_bytes=gpu_mem,
        host_memory_bytes=host_mem,
    )


class TestInProcessExecutor:
    def test_executes_real_functions_in_dependency_order(self):
        rt = Runtime(RuntimeConfig(backend=Backend.IN_PROCESS))
        x = rt.register_input(8, value=np.array([1.0, 2.0]))
        (doubled,) = rt.submit(name="double", inputs=[x], fn=lambda a: a * 2)
        (squared,) = rt.submit(name="square", inputs=[doubled], fn=lambda a: a**2)
        result = rt.run()
        np.testing.assert_array_equal(result.value_of(squared), [4.0, 16.0])

    def test_multi_output_binding(self):
        rt = Runtime(RuntimeConfig(backend=Backend.IN_PROCESS))
        x = rt.register_input(8, value=5)
        lo, hi = rt.submit(
            name="split",
            inputs=[x],
            fn=lambda a: (a - 1, a + 1),
            n_outputs=2,
            output_bytes=[8, 8],
        )
        result = rt.run()
        assert result.value_of(lo) == 4
        assert result.value_of(hi) == 6

    def test_wrong_output_arity_raises(self):
        rt = Runtime(RuntimeConfig(backend=Backend.IN_PROCESS))
        x = rt.register_input(8, value=1)
        rt.submit(
            name="bad", inputs=[x], fn=lambda a: a, n_outputs=2, output_bytes=[8, 8]
        )
        with pytest.raises(ValueError, match="declared 2 outputs"):
            rt.run()

    def test_task_without_function_rejected(self):
        rt = Runtime(RuntimeConfig(backend=Backend.IN_PROCESS))
        x = rt.register_input(8, value=1)
        rt.submit(name="nofn", inputs=[x])
        with pytest.raises(ValueError, match="no function"):
            rt.run()

    def test_trace_has_one_record_per_task(self):
        rt = Runtime(RuntimeConfig(backend=Backend.IN_PROCESS))
        x = rt.register_input(8, value=1)
        (y,) = rt.submit(name="inc", inputs=[x], fn=lambda a: a + 1)
        rt.submit(name="inc", inputs=[y], fn=lambda a: a + 1)
        result = rt.run()
        assert len(result.trace.tasks) == 2


class TestSimulatedExecutor:
    def _run(self, n_tasks=8, use_gpu=False, cost=None, **config_overrides):
        config = RuntimeConfig(use_gpu=use_gpu, **config_overrides)
        rt = Runtime(config)
        for i in range(n_tasks):
            ref = rt.register_input(10**6, name=f"in{i}")
            rt.submit(name="work", inputs=[ref], cost=cost or _cost())
        return rt.run()

    def test_all_tasks_complete(self):
        result = self._run(n_tasks=20)
        assert len(result.trace.tasks) == 20
        assert result.makespan > 0

    def test_deterministic_across_runs(self):
        a = self._run(n_tasks=20)
        b = self._run(n_tasks=20)
        assert a.makespan == b.makespan

    def test_parallelism_bounded_by_cores(self):
        # 200 serial 1-second tasks on 128 cores need at least two waves.
        cost = _cost(serial=16e9, in_bytes=0, out_bytes=0)
        result = self._run(n_tasks=200, cost=cost)
        assert result.makespan >= 2.0

    def test_gpu_mode_limits_parallel_tasks_to_gpus(self):
        # GPU-eligible 1-second tasks: 32 devices -> 64 tasks need 2 waves;
        # on CPUs the same 64 tasks fit one 128-core wave.
        gpu_cost = TaskCost(
            serial_flops=0.0,
            parallel_flops=420e9 * 10,
            parallel_items=1e12,
            arithmetic_intensity=1e9,
            input_bytes=0,
            output_bytes=0,
            host_device_bytes=0,
            gpu_memory_bytes=1,
        )
        gpu_result = self._run(n_tasks=64, use_gpu=True, cost=gpu_cost)
        waves = gpu_result.makespan / 10.0
        assert waves >= 2.0

    def test_gpu_oom_raised_before_simulation(self):
        cost = _cost(parallel=1e9, items=1e6, gpu_mem=13 * 1024**3)
        with pytest.raises(GpuOutOfMemoryError):
            self._run(use_gpu=True, cost=cost)

    def test_gpu_oom_not_raised_in_cpu_mode(self):
        cost = _cost(parallel=1e9, items=1e6, gpu_mem=13 * 1024**3)
        result = self._run(use_gpu=False, cost=cost)
        assert len(result.trace.tasks) == 8

    def test_host_oom_raised_in_both_modes(self):
        cost = _cost(host_mem=200 * 1024**3)
        with pytest.raises(HostOutOfMemoryError):
            self._run(use_gpu=False, cost=cost)

    @pytest.mark.parametrize("overflow", [False, True], ids=["direct", "overflow"])
    def test_gpu_run_on_gpu_less_cluster_refused(self, overflow):
        # K-means 1 GB, grid 8: no node has a device slot, so the run is
        # refused before the first event instead of deadlocking.
        workflow = KMeansWorkflow(paper_datasets()["kmeans_1gb"], grid_rows=8)
        rt = Runtime(
            RuntimeConfig(
                cluster=cpu_only(), use_gpu=True, gpu_overflow_to_cpu=overflow
            )
        )
        workflow.build(rt)
        with pytest.raises(ValueError, match="'cpu-only-8' has no GPU devices"):
            rt.run()

    def test_gpu_less_cluster_runs_cpu_work(self):
        # Hybrid placement keeping every GPU-eligible type on CPUs is fine.
        cost = _cost(parallel=1e9, items=1e6)
        result = self._run(
            n_tasks=4,
            use_gpu=True,
            cost=cost,
            cluster=cpu_only(),
            gpu_task_types=frozenset(),
        )
        assert len(result.trace.tasks) == 4
        assert not any(r.used_gpu for r in result.trace.tasks)

    @pytest.mark.parametrize("overflow", [False, True], ids=["direct", "overflow"])
    def test_zero_gpu_rate_error_reaches_caller(self, overflow):
        # A GPU-bound profile with no work items: zero device occupancy,
        # so the cost model rejects its parallel fraction.
        with pytest.raises(ValueError, match="GPU rate is zero"):
            self._run(
                n_tasks=1,
                use_gpu=True,
                cost=_cost(parallel=1e9),
                gpu_overflow_to_cpu=overflow,
            )

    def test_memory_checks_precede_stage_times(self):
        rt = Runtime(RuntimeConfig(use_gpu=True))
        rt.submit(
            name="zero_rate",
            inputs=[rt.register_input(10**6)],
            cost=_cost(parallel=1e9),
        )
        rt.submit(
            name="host_oom",
            inputs=[rt.register_input(10**6)],
            cost=_cost(host_mem=200 * 1024**3),
        )
        with pytest.raises(HostOutOfMemoryError):
            rt.run()

    def test_stage_records_cover_figure4(self):
        cost = _cost(parallel=1e10, items=1e7, gpu_mem=10**7)
        result = self._run(n_tasks=4, use_gpu=True, cost=cost)
        stages = {r.stage for r in result.trace.stages}
        assert Stage.DESERIALIZATION in stages
        assert Stage.SERIAL_FRACTION in stages
        assert Stage.PARALLEL_FRACTION in stages
        assert Stage.CPU_GPU_COMM in stages
        assert Stage.SERIALIZATION in stages

    def test_cpu_tasks_have_no_comm_stage(self):
        result = self._run(n_tasks=4, use_gpu=False)
        assert not [r for r in result.trace.stages if r.stage is Stage.CPU_GPU_COMM]

    def test_single_task_runs_without_distribution_overhead(self):
        # DAG width 1 => no (de-)serialization stages (the paper's 1x1 case).
        config = RuntimeConfig()
        rt = Runtime(config)
        ref = rt.register_input(10**9)
        rt.submit(name="solo", inputs=[ref], cost=_cost(in_bytes=10**9))
        result = rt.run()
        stages = {r.stage for r in result.trace.stages}
        assert Stage.DESERIALIZATION not in stages
        assert Stage.SERIALIZATION not in stages

    def test_local_storage_faster_than_shared_for_many_readers(self):
        cost = _cost(serial=1e6, in_bytes=50 * 10**6, out_bytes=0)
        local = self._run(n_tasks=128, cost=cost, storage=StorageKind.LOCAL)
        shared = self._run(n_tasks=128, cost=cost, storage=StorageKind.SHARED)
        # 8 local disks aggregate 4 GB/s vs 2 GB/s GPFS.
        assert local.makespan < shared.makespan

    def test_scheduling_policies_both_complete(self):
        for policy in SchedulingPolicy:
            result = self._run(n_tasks=16, scheduling=policy)
            assert len(result.trace.tasks) == 16

    def test_locality_policy_no_slower_dispatch_free_run(self):
        # Sanity: both policies execute the same DAG with the same task set.
        gen = self._run(n_tasks=16, scheduling=SchedulingPolicy.GENERATION_ORDER)
        loc = self._run(n_tasks=16, scheduling=SchedulingPolicy.DATA_LOCALITY)
        assert len(gen.trace.tasks) == len(loc.trace.tasks)

    def test_dependencies_sequence_execution(self):
        rt = Runtime(RuntimeConfig())
        ref = rt.register_input(0)
        cost = _cost(serial=16e9, in_bytes=0, out_bytes=0)  # 1 s serial
        (a,) = rt.submit(name="first", inputs=[ref], cost=cost)
        rt.submit(name="second", inputs=[a], cost=cost)
        result = rt.run()
        # Chain of two 1-second tasks cannot finish in under 2 seconds.
        assert result.makespan >= 2.0

    def test_outputs_move_home_to_executing_node(self):
        rt = Runtime(RuntimeConfig(storage=StorageKind.LOCAL))
        ref = rt.register_input(10**6, home_node=5)
        (out,) = rt.submit(name="w", inputs=[ref], cost=_cost())
        rt.run()
        assert 0 <= out.home_node < 8

    def test_trace_invariants_hold(self):
        from tests.trace_invariants import assert_trace_invariants

        result = self._run(n_tasks=40)
        assert_trace_invariants(result.trace)

    def test_trace_invariants_hold_on_gpu(self):
        from tests.trace_invariants import assert_trace_invariants

        cost = _cost(parallel=1e10, items=1e6, gpu_mem=10**6)
        result = self._run(n_tasks=40, use_gpu=True, cost=cost)
        assert_trace_invariants(result.trace)
