"""Unit tests for the hardware specs and cluster model."""

import pytest

from repro.hardware import (
    ClusterSpec,
    CpuSpec,
    DiskSpec,
    GpuSpec,
    HostOutOfMemoryError,
    InterconnectSpec,
    NetworkSpec,
    SimulatedCluster,
    StorageKind,
    minotauro,
)
from repro.sim import SimEngine


class TestMinotauroPreset:
    def test_matches_paper_testbed(self):
        spec = minotauro()
        assert spec.num_nodes == 8
        assert spec.node.cpu.cores_per_node == 16
        assert spec.node.gpu.devices_per_node == 4
        assert spec.total_cpu_cores == 128
        assert spec.total_gpus == 32
        assert spec.node.gpu.memory_bytes == 12 * 1024**3

    def test_scaling_node_count(self):
        spec = minotauro(num_nodes=4)
        assert spec.total_cpu_cores == 64
        assert spec.total_gpus == 16

    def test_all_scheduling_policies_have_latencies(self):
        from repro.runtime import SchedulingPolicy

        spec = minotauro()
        assert set(spec.scheduling_latency) == {p.value for p in SchedulingPolicy}
        assert (
            spec.scheduling_latency["data_locality"]
            > spec.scheduling_latency["generation_order"]
        )

    def test_invalid_node_count_rejected(self):
        with pytest.raises(ValueError):
            minotauro(num_nodes=0)


class TestSpecValidation:
    def test_cpu_spec_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            CpuSpec("x", cores_per_node=0, flops_per_core=1, mem_bandwidth_per_core=1,
                    serialization_bandwidth=1)
        with pytest.raises(ValueError):
            CpuSpec("x", cores_per_node=1, flops_per_core=0, mem_bandwidth_per_core=1,
                    serialization_bandwidth=1)

    def test_gpu_utilisation_curve(self):
        gpu = minotauro().node.gpu
        assert gpu.utilisation(0) == 0.0
        assert gpu.utilisation(gpu.saturation_items) == pytest.approx(0.5)
        assert gpu.utilisation(100 * gpu.saturation_items) > 0.98
        # Monotone increasing.
        values = [gpu.utilisation(10.0**e) for e in range(3, 10)]
        assert values == sorted(values)

    def test_interconnect_per_transfer_cannot_exceed_node(self):
        with pytest.raises(ValueError):
            InterconnectSpec("x", bandwidth_per_transfer=10.0, node_bandwidth=5.0,
                             latency=0.0)

    def test_disk_per_stream_cap_validation(self):
        with pytest.raises(ValueError):
            DiskSpec("x", read_bandwidth=1.0, write_bandwidth=1.0, latency=0.0,
                     per_stream_cap=0.0)

    def test_shared_disk_has_stream_cap(self):
        spec = minotauro()
        assert spec.shared_disk.per_stream_cap is not None
        assert spec.shared_disk.per_stream_cap < spec.shared_disk.read_bandwidth

    def test_network_validation(self):
        with pytest.raises(ValueError):
            NetworkSpec("x", link_bandwidth=0.0, fabric_bandwidth=1.0, latency=0.0)


class TestHostMemory:
    def test_error_carries_sizes(self):
        error = HostOutOfMemoryError(200 * 2**30, 128 * 2**30, "node3")
        assert error.requested == 200 * 2**30
        assert "node3" in str(error)


class TestSimulatedCluster:
    def test_resources_match_spec(self):
        sim = SimEngine()
        cluster = SimulatedCluster(sim, minotauro())
        assert len(cluster.nodes) == 8
        assert cluster.total_cpu_cores == 128
        assert cluster.total_gpus == 32
        node = cluster.nodes[0]
        assert node.cores.capacity == 16
        assert node.gpus.capacity == 4

    def test_node_of_core(self):
        sim = SimEngine()
        cluster = SimulatedCluster(sim, minotauro())
        assert cluster.node_of_core(0) == 0
        assert cluster.node_of_core(15) == 0
        assert cluster.node_of_core(16) == 1
        assert cluster.node_of_core(127) == 7


class TestStorageKind:
    def test_labels(self):
        assert StorageKind.LOCAL.label == "Local disk"
        assert StorageKind.SHARED.label == "Shared disk"

    def test_string_value(self):
        assert str(StorageKind.LOCAL) == "local_disk"
