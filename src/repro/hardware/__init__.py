"""Hardware models of the heterogeneous CPU-GPU cluster.

This package describes the testbed the paper ran on — the BSC Minotauro
cluster (8 nodes x 16 Xeon cores + 4 NVIDIA K80 devices with 12 GB each,
PCIe interconnect, node-local disks, and a GPFS shared file system) — as a
set of parameterised specs plus simulation-time resource wrappers.

The numbers in :func:`~repro.hardware.specs.minotauro` are *effective*
throughputs calibrated so the reproduction matches the shape of the paper's
results; see ``repro.perfmodel.calibration`` for the rationale behind each
value.
"""

from repro.hardware.cluster import SimulatedCluster, SimulatedNode
from repro.hardware.gpu import GpuOutOfMemoryError
from repro.hardware.memory import HostOutOfMemoryError
from repro.hardware.presets import cluster_presets, cpu_only, fat_storage, modern
from repro.hardware.specs import (
    ClusterSpec,
    CpuSpec,
    DiskSpec,
    GpuSpec,
    InterconnectSpec,
    NetworkSpec,
    NodeSpec,
    minotauro,
)
from repro.hardware.storage import StorageKind

__all__ = [
    "ClusterSpec",
    "CpuSpec",
    "DiskSpec",
    "GpuOutOfMemoryError",
    "GpuSpec",
    "HostOutOfMemoryError",
    "InterconnectSpec",
    "NetworkSpec",
    "NodeSpec",
    "SimulatedCluster",
    "SimulatedNode",
    "StorageKind",
    "cluster_presets",
    "cpu_only",
    "fat_storage",
    "minotauro",
    "modern",
]
