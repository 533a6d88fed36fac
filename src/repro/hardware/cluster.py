"""Simulation-time cluster state.

:class:`SimulatedCluster` instantiates the contended resources of a
:class:`~repro.hardware.specs.ClusterSpec` inside a discrete-event
simulation: CPU core pools and GPU device pools per node, a PCIe channel per
node, local-disk channels per node, and cluster-wide network and shared-disk
channels.  The runtime's simulated executor acquires these resources while
processing task stages, so contention (the paper's storage I/O, network I/O,
and scheduling overheads) emerges from the event dynamics rather than from
closed-form formulas.
"""

from __future__ import annotations

from repro.hardware.specs import ClusterSpec
from repro.sim import BandwidthResource, CapacityResource, SimEngine


class _EmptyDevicePool:
    """Null device pool of a GPU-less node: nothing to grant, ever."""

    capacity = 0
    in_use = 0
    peak_in_use = 0
    available = 0

    def try_request(self, amount: int) -> bool:
        return False

    def release(self, amount: int) -> None:  # pragma: no cover - defensive
        raise RuntimeError("released a device on a GPU-less node")


class SimulatedNode:
    """Per-node contended resources."""

    def __init__(self, sim: SimEngine, spec: ClusterSpec, index: int) -> None:
        node = spec.node
        self.index = index
        self.spec = node
        self.cores = CapacityResource(
            sim, node.cpu.cores_per_node, name=f"node{index}.cores"
        )
        self.gpus = (
            CapacityResource(sim, node.gpu.devices_per_node, name=f"node{index}.gpus")
            if node.gpu.devices_per_node > 0
            else _EmptyDevicePool()
        )
        self.pcie = BandwidthResource(
            sim,
            node.interconnect.node_bandwidth,
            name=f"node{index}.pcie",
            per_job_cap=node.interconnect.bandwidth_per_transfer,
            latency=node.interconnect.latency,
        )
        self.disk_read = BandwidthResource(
            sim,
            node.local_disk.read_bandwidth,
            name=f"node{index}.disk_read",
            per_job_cap=node.local_disk.per_stream_cap,
            latency=node.local_disk.latency,
        )
        self.disk_write = BandwidthResource(
            sim,
            node.local_disk.write_bandwidth,
            name=f"node{index}.disk_write",
            per_job_cap=node.local_disk.per_stream_cap,
            latency=node.local_disk.latency,
        )
        self._ram_in_use = 0
        self._peak_ram = 0
        self._alive = True

    @property
    def alive(self) -> bool:
        """Whether the node is still part of the cluster.

        A node killed by a :class:`~repro.faults.NodeFault` stops
        accepting work: resource views report no free slots for it.
        """
        return self._alive

    def fail(self) -> None:
        """Take the node out of the cluster (fault injection)."""
        self._alive = False

    @property
    def ram_in_use(self) -> int:
        """Host memory currently reserved by running tasks."""
        return self._ram_in_use

    @property
    def ram_free(self) -> int:
        """Host memory still available for new tasks."""
        return self.spec.ram_bytes - self._ram_in_use

    @property
    def peak_ram(self) -> int:
        """High-water mark of reserved host memory."""
        return self._peak_ram

    def reserve_ram(self, nbytes: int) -> None:
        """Charge a task's host working set against node RAM."""
        if nbytes < 0:
            raise ValueError("reservation must be non-negative")
        if nbytes > self.ram_free:
            raise ValueError(
                f"RAM over-reservation on node {self.index}: {nbytes} > "
                f"{self.ram_free} free"
            )
        self._ram_in_use += nbytes
        self._peak_ram = max(self._peak_ram, self._ram_in_use)

    def release_ram(self, nbytes: int) -> None:
        """Return a task's host working set."""
        if nbytes < 0 or nbytes > self._ram_in_use:
            raise ValueError(
                f"invalid RAM release of {nbytes} (in use {self._ram_in_use})"
            )
        self._ram_in_use -= nbytes


class SimulatedCluster:
    """All contended resources of a cluster, bound to one simulator."""

    def __init__(self, sim: SimEngine, spec: ClusterSpec) -> None:
        self.sim = sim
        self.spec = spec
        self.nodes = [SimulatedNode(sim, spec, i) for i in range(spec.num_nodes)]
        self.network = BandwidthResource(
            sim,
            spec.network.fabric_bandwidth,
            name="network",
            per_job_cap=spec.network.link_bandwidth,
            latency=spec.network.latency,
        )
        self.shared_disk_read = BandwidthResource(
            sim,
            spec.shared_disk.read_bandwidth,
            name="shared_disk_read",
            per_job_cap=spec.shared_disk.per_stream_cap,
            latency=spec.shared_disk.latency,
        )
        self.shared_disk_write = BandwidthResource(
            sim,
            spec.shared_disk.write_bandwidth,
            name="shared_disk_write",
            per_job_cap=spec.shared_disk.per_stream_cap,
            latency=spec.shared_disk.latency,
        )

    @property
    def total_cpu_cores(self) -> int:
        """CPU cores across all simulated nodes."""
        return self.spec.total_cpu_cores

    @property
    def total_gpus(self) -> int:
        """GPU devices across all simulated nodes."""
        return self.spec.total_gpus

    def node_of_core(self, core_index: int) -> int:
        """Map a global core index to its node index."""
        return core_index // self.spec.node.cpu.cores_per_node
