"""Tests for memory-aware scheduling (node RAM accounting)."""

import pytest

from repro.perfmodel import TaskCost
from repro.runtime import Runtime, RuntimeConfig
from repro.hardware import minotauro

GIB = 1024**3


def _fat_task_cost(host_gib: float, seconds: float = 1.0):
    return TaskCost(
        serial_flops=seconds * 16e9,
        parallel_flops=0.0,
        parallel_items=0.0,
        arithmetic_intensity=0.0,
        input_bytes=0,
        output_bytes=0,
        host_device_bytes=0,
        gpu_memory_bytes=0,
        host_memory_bytes=int(host_gib * GIB),
    )


def _run(n_tasks, host_gib, seconds=1.0):
    rt = Runtime(RuntimeConfig())
    cost = _fat_task_cost(host_gib, seconds)
    for i in range(n_tasks):
        ref = rt.register_input(0, name=f"in{i}")
        rt.submit(name="fat", inputs=[ref], cost=cost)
    return rt.run()


class TestRamAccounting:
    def test_thin_tasks_unconstrained(self):
        # 1 GiB tasks: 16 fit per node; 128 tasks run in one wave.
        result = _run(n_tasks=128, host_gib=1.0)
        assert result.makespan == pytest.approx(1.0, rel=0.2)

    def test_fat_tasks_limited_by_ram_not_cores(self):
        # 100 GiB tasks: one per node despite 16 free cores; 16 tasks over
        # 8 nodes need two waves.
        result = _run(n_tasks=16, host_gib=100.0)
        assert result.makespan >= 2.0

    def test_concurrency_matches_ram_capacity(self):
        # 40 GiB tasks: exactly 3 fit in 128 GiB; 24 tasks over 8 nodes
        # run in one wave, 25 need a second.
        one_wave = _run(n_tasks=24, host_gib=40.0)
        two_waves = _run(n_tasks=25, host_gib=40.0)
        assert one_wave.makespan < 2.0
        assert two_waves.makespan >= 2.0

    def test_peak_ram_tracked(self):
        from repro.runtime.backends.simulated import SimulatedExecutor

        rt = Runtime(RuntimeConfig())
        cost = _fat_task_cost(40.0)
        for i in range(8):
            ref = rt.register_input(0, name=f"in{i}")
            rt.submit(name="fat", inputs=[ref], cost=cost)
        executor = SimulatedExecutor(rt.config)
        executor.execute(rt.graph)
        peaks = [node.peak_ram for node in executor.cluster.nodes]
        assert max(peaks) <= minotauro().node.ram_bytes
        assert max(peaks) >= 40 * GIB

    def test_ram_fully_released_after_run(self):
        from repro.runtime.backends.simulated import SimulatedExecutor

        rt = Runtime(RuntimeConfig())
        for i in range(12):
            ref = rt.register_input(0, name=f"in{i}")
            rt.submit(name="fat", inputs=[ref], cost=_fat_task_cost(10.0))
        executor = SimulatedExecutor(rt.config)
        executor.execute(rt.graph)
        assert all(node.ram_in_use == 0 for node in executor.cluster.nodes)


class TestNodeRamApi:
    def test_reserve_release_roundtrip(self):
        from repro.hardware import SimulatedCluster
        from repro.sim import SimEngine

        node = SimulatedCluster(SimEngine(), minotauro()).nodes[0]
        node.reserve_ram(GIB)
        assert node.ram_in_use == GIB
        node.release_ram(GIB)
        assert node.ram_in_use == 0

    def test_over_reservation_rejected(self):
        from repro.hardware import SimulatedCluster
        from repro.sim import SimEngine

        node = SimulatedCluster(SimEngine(), minotauro()).nodes[0]
        with pytest.raises(ValueError):
            node.reserve_ram(200 * GIB)

    def test_over_release_rejected(self):
        from repro.hardware import SimulatedCluster
        from repro.sim import SimEngine

        node = SimulatedCluster(SimEngine(), minotauro()).nodes[0]
        with pytest.raises(ValueError):
            node.release_ram(1)
