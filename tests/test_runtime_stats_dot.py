"""Tests for resource-utilisation stats and DOT export."""

import pytest

from repro.algorithms import KMeansWorkflow, MatmulWorkflow
from repro.data import DatasetSpec, paper_datasets
from repro.hardware import StorageKind
from repro.runtime import Runtime, RuntimeConfig
from repro.runtime.backends.simulated import SimulatedExecutor


def _run_and_stats(storage, use_gpu=False, grid_rows=64):
    executor = SimulatedExecutor(RuntimeConfig(storage=storage, use_gpu=use_gpu))
    rt = Runtime(RuntimeConfig())
    KMeansWorkflow(
        paper_datasets()["kmeans_10gb"], grid_rows=grid_rows, n_clusters=10,
        iterations=1,
    ).build(rt)
    executor.execute(rt.graph)
    return executor.resource_stats()


class TestResourceStats:
    def test_shared_storage_uses_shared_disk_only(self):
        stats = _run_and_stats(StorageKind.SHARED)
        assert stats.shared_disk_read_bytes > 0
        assert stats.local_disk_read_bytes == 0
        # Reads cross the network to GPFS.
        assert stats.network_bytes > 0

    def test_local_storage_uses_local_disks(self):
        stats = _run_and_stats(StorageKind.LOCAL)
        assert stats.local_disk_read_bytes > 0
        assert stats.shared_disk_read_bytes == 0

    def test_read_volume_close_to_dataset_size(self):
        stats = _run_and_stats(StorageKind.SHARED)
        dataset_bytes = paper_datasets()["kmeans_10gb"].size_bytes
        # One iteration reads every block once (plus small centroid refs).
        assert stats.shared_disk_read_bytes == pytest.approx(
            dataset_bytes, rel=0.05
        )

    def test_pcie_only_used_in_gpu_mode(self):
        cpu_stats = _run_and_stats(StorageKind.SHARED, use_gpu=False)
        gpu_stats = _run_and_stats(StorageKind.SHARED, use_gpu=True)
        assert cpu_stats.pcie_bytes == 0
        assert gpu_stats.pcie_bytes > 0

    def test_peak_gpus_bounded(self):
        stats = _run_and_stats(StorageKind.SHARED, use_gpu=True, grid_rows=128)
        assert 0 < stats.peak_gpus_in_use <= 32

    def test_peak_cores_bounded_by_cluster(self):
        stats = _run_and_stats(StorageKind.SHARED, grid_rows=256)
        assert 0 < stats.peak_cores_in_use <= 128

    def test_concurrent_shared_readers_tracked(self):
        stats = _run_and_stats(StorageKind.SHARED, grid_rows=256)
        assert stats.peak_concurrent_shared_reads > 1


class TestDotExport:
    def _graph(self):
        rt = Runtime(RuntimeConfig())
        MatmulWorkflow(DatasetSpec("d", rows=64, cols=64), grid=2).build(rt)
        return rt.graph

    def test_dot_structure(self):
        dot = self._graph().to_dot()
        assert dot.startswith("digraph workflow {")
        assert dot.rstrip().endswith("}")
        assert "matmul_func" in dot
        assert "->" in dot

    def test_vertex_and_edge_counts(self):
        graph = self._graph()
        dot = graph.to_dot()
        assert dot.count("->") == graph.num_edges
        assert dot.count("[label=") == graph.num_tasks

    def test_types_get_distinct_colours(self):
        dot = self._graph().to_dot()
        colours = {
            line.split("fillcolor=")[1].rstrip("];")
            for line in dot.splitlines()
            if "fillcolor=" in line
        }
        assert len(colours) == 2  # matmul_func and add_func

    def test_size_guard(self):
        rt = Runtime(RuntimeConfig())
        MatmulWorkflow(DatasetSpec("d", rows=64, cols=64), grid=8).build(rt)
        with pytest.raises(ValueError, match="raise max_tasks"):
            rt.graph.to_dot(max_tasks=10)
