"""Stage-level cost model for CPU-based and GPU-accelerated tasks.

The model follows the task anatomy of the paper's Figure 4:

* **Deserialization** — read the input from storage and decode it into
  memory, on a CPU core.
* **Serial fraction** — single-threaded user code, always on a CPU core.
* **Parallel fraction** — the thread-parallel part of the user code.  On a
  CPU it runs on one core (the runtime pins one task per core, §3.3); on a
  GPU it runs at an effective rate shaped by a roofline
  (``min(peak_flops, mem_bandwidth x arithmetic_intensity)``) scaled by an
  occupancy curve — small kernels cannot fill the device, which is exactly
  why GPU speedup grows with block size in Figures 7-9.
* **CPU-GPU communication** — host<->device transfers over the PCIe bus
  (GPU-accelerated tasks only).
* **Serialization** — encode the output and write it to storage.

Compute-stage durations are closed-form; byte-moving stages are split into a
CPU-side encode/decode part (closed-form) and a storage/bus transfer part
that the simulated executor runs through contended
:class:`~repro.sim.BandwidthResource` channels.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.hardware.specs import ClusterSpec, CpuSpec, GpuSpec


@dataclass(frozen=True)
class TaskCost:
    """Resource demands of one task, derived from its block shape.

    Every algorithm in :mod:`repro.algorithms` maps each of its task types to
    a ``TaskCost``; the cost model turns the demands into stage durations.
    """

    #: FLOPs of the single-threaded fraction of the user code.
    serial_flops: float
    #: FLOPs of the thread-parallelisable fraction of the user code.
    parallel_flops: float
    #: Number of independent work items (GPU threads) in the parallel
    #: fraction; drives device occupancy.
    parallel_items: float
    #: FLOPs per byte touched by the parallel fraction (roofline abscissa).
    arithmetic_intensity: float
    #: Bytes deserialised from storage before the user code runs.
    input_bytes: int
    #: Bytes serialised back to storage after the user code runs.
    output_bytes: int
    #: Total bytes moved over the CPU-GPU bus (host-to-device plus
    #: device-to-host); zero for CPU-based execution.
    host_device_bytes: int
    #: Peak device-memory residency of the task's working set.
    gpu_memory_bytes: int
    #: Kernel-quality factor in (0, 1]: how close the algorithm's GPU
    #: implementation gets to the device's effective rate.
    gpu_efficiency: float = 1.0
    #: Peak host-RAM residency of the task's working set (0 = negligible).
    host_memory_bytes: int = 0

    def __post_init__(self) -> None:
        numeric_fields = (
            "serial_flops",
            "parallel_flops",
            "parallel_items",
            "arithmetic_intensity",
            "input_bytes",
            "output_bytes",
            "host_device_bytes",
            "gpu_memory_bytes",
            "host_memory_bytes",
        )
        for name in numeric_fields:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0 < self.gpu_efficiency <= 1:
            raise ValueError("gpu_efficiency must be in (0, 1]")

    def scaled(self, factor: float) -> "TaskCost":
        """Uniformly scale the task's work and data volume by ``factor``."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        return replace(
            self,
            serial_flops=self.serial_flops * factor,
            parallel_flops=self.parallel_flops * factor,
            parallel_items=self.parallel_items * factor,
            input_bytes=int(self.input_bytes * factor),
            output_bytes=int(self.output_bytes * factor),
            host_device_bytes=int(self.host_device_bytes * factor),
            gpu_memory_bytes=int(self.gpu_memory_bytes * factor),
            host_memory_bytes=int(self.host_memory_bytes * factor),
        )


@dataclass(frozen=True)
class StageTimes:
    """Durations of the Figure-4 stages for one task on one processor type."""

    deserialization_cpu: float
    serial_fraction: float
    parallel_fraction: float
    cpu_gpu_comm: float
    serialization_cpu: float

    @property
    def user_code(self) -> float:
        """Task user code time: serial + parallel + CPU-GPU communication."""
        return self.serial_fraction + self.parallel_fraction + self.cpu_gpu_comm

    @property
    def total_compute(self) -> float:
        """Everything except the storage/bus transfer parts handled by the
        simulator's contended resources."""
        return self.deserialization_cpu + self.user_code + self.serialization_cpu


#: Cache-miss sentinel (``None`` is never a stage-times value).
_MISS = object()


class CostModel:
    """Maps :class:`TaskCost` demands to stage durations on a cluster.

    Stage evaluation is memoized: :meth:`stage_times` (and everything
    built on it, e.g. :meth:`user_code_time`) caches its result keyed on
    ``(TaskCost value, device, threads)``.  Workflows submit thousands of
    tasks sharing a handful of cost profiles — every Matmul
    multiplication task of one block shape, say — so a figure sweep
    evaluates each distinct key once and hits the cache for the rest.

    Invalidation rule: there is none, by construction.  Both sides of
    every cached entry are immutable — :class:`TaskCost` and the
    :class:`~repro.hardware.specs.ClusterSpec` constants are frozen
    dataclasses — so an entry can never go stale within one model
    instance.  Evaluating against different hardware requires a new
    ``CostModel`` (the executor builds one per run).
    """

    def __init__(self, cluster: ClusterSpec) -> None:
        self.cluster = cluster
        self.cpu: CpuSpec = cluster.node.cpu
        self.gpu: GpuSpec = cluster.node.gpu
        self._memo: dict = {}

    # ------------------------------------------------------------------ rates
    def cpu_rate(self, arithmetic_intensity: float) -> float:
        """Effective FLOP/s of one core at the given arithmetic intensity."""
        if arithmetic_intensity <= 0:
            return self.cpu.flops_per_core
        return min(
            self.cpu.flops_per_core,
            self.cpu.mem_bandwidth_per_core * arithmetic_intensity,
        )

    def gpu_rate(
        self,
        arithmetic_intensity: float,
        work_items: float,
        efficiency: float = 1.0,
    ) -> float:
        """Effective FLOP/s of one device for a kernel of the given size."""
        if arithmetic_intensity <= 0:
            roof = self.gpu.flops
        else:
            roof = min(self.gpu.flops, self.gpu.mem_bandwidth * arithmetic_intensity)
        return roof * self.gpu.utilisation(work_items) * efficiency

    # ----------------------------------------------------------- stage times
    def serial_fraction_time(self, cost: TaskCost) -> float:
        """Serial user code always runs on one CPU core."""
        if cost.serial_flops == 0:
            return 0.0
        return cost.serial_flops / self.cpu.flops_per_core

    def cpu_thread_efficiency(self, threads: int) -> float:
        """Parallel efficiency of a multi-threaded CPU task.

        The paper notes (§3.3) that frameworks recommend one task per core
        to avoid over-subscription; this sub-linear scaling curve (memory
        contention + synchronisation) is what the over-subscription
        micro-benchmark rests on.
        """
        if threads < 1:
            raise ValueError("threads must be >= 1")
        return 1.0 / (1.0 + 0.08 * (threads - 1))

    def parallel_fraction_time_cpu(self, cost: TaskCost, threads: int = 1) -> float:
        """Parallel fraction on ``threads`` pinned CPU cores (default one,
        the paper's recommended configuration)."""
        if cost.parallel_flops == 0:
            return 0.0
        rate = (
            self.cpu_rate(cost.arithmetic_intensity)
            * threads
            * self.cpu_thread_efficiency(threads)
        )
        return cost.parallel_flops / rate

    def parallel_fraction_time_gpu(self, cost: TaskCost) -> float:
        """Parallel fraction on one GPU device, including launch overhead."""
        if cost.parallel_flops == 0:
            return 0.0
        rate = self.gpu_rate(
            cost.arithmetic_intensity, cost.parallel_items, cost.gpu_efficiency
        )
        if rate <= 0:
            raise ValueError("GPU rate is zero for a non-trivial parallel fraction")
        return self.gpu.launch_overhead + cost.parallel_flops / rate

    def cpu_gpu_comm_time(self, cost: TaskCost) -> float:
        """Host<->device transfer time on an uncontended bus.

        The simulated executor replaces this with a transfer through the
        node's PCIe :class:`~repro.sim.BandwidthResource`; both use the same
        per-transfer bandwidth, so single-task analytics and the simulation
        agree when the bus is idle.
        """
        if cost.host_device_bytes == 0:
            return 0.0
        pcie = self.cluster.node.interconnect
        return pcie.latency + cost.host_device_bytes / pcie.bandwidth_per_transfer

    def deserialization_cpu_time(self, cost: TaskCost) -> float:
        """CPU-side decode of the input (storage read is separate)."""
        return cost.input_bytes / self.cpu.serialization_bandwidth

    def serialization_cpu_time(self, cost: TaskCost) -> float:
        """CPU-side encode of the output (storage write is separate)."""
        return cost.output_bytes / self.cpu.serialization_bandwidth

    # ------------------------------------------------------------- summaries
    def stage_times(
        self, cost: TaskCost, use_gpu: bool, threads: int = 1
    ) -> StageTimes:
        """All stage durations for one task on one processor type.

        ``threads`` only affects the CPU parallel fraction (multi-threaded
        tasks of the over-subscription micro-benchmark); it is part of the
        memoization key regardless, so mixed-mode runs never collide.
        """
        key = (cost, use_gpu, threads)
        cached = self._memo.get(key, _MISS)
        if cached is not _MISS:
            return cached
        if use_gpu:
            parallel = self.parallel_fraction_time_gpu(cost)
            comm = self.cpu_gpu_comm_time(cost)
        else:
            parallel = self.parallel_fraction_time_cpu(cost, threads)
            comm = 0.0
        times = StageTimes(
            deserialization_cpu=self.deserialization_cpu_time(cost),
            serial_fraction=self.serial_fraction_time(cost),
            parallel_fraction=parallel,
            cpu_gpu_comm=comm,
            serialization_cpu=self.serialization_cpu_time(cost),
        )
        self._memo[key] = times
        return times

    def stage_times_batch(
        self,
        costs: Sequence[TaskCost],
        use_gpu: bool,
        threads: int = 1,
    ) -> list[StageTimes]:
        """:meth:`stage_times` of every cost in ``costs``, in order."""
        return [self.stage_times(cost, use_gpu, threads) for cost in costs]

    def user_code_time(self, cost: TaskCost, use_gpu: bool) -> float:
        """Task user code duration (§4.2 metric)."""
        return self.stage_times(cost, use_gpu).user_code

    def parallel_fraction_speedup(self, cost: TaskCost) -> float:
        """GPU-over-CPU speedup of the parallel fraction alone."""
        gpu_time = self.parallel_fraction_time_gpu(cost)
        if gpu_time == 0:
            return 1.0
        return self.parallel_fraction_time_cpu(cost) / gpu_time

    def user_code_speedup(self, cost: TaskCost) -> float:
        """GPU-over-CPU speedup of the full task user code."""
        gpu_time = self.user_code_time(cost, use_gpu=True)
        if gpu_time == 0:
            return 1.0
        return self.user_code_time(cost, use_gpu=False) / gpu_time

    def check_gpu_memory(self, cost: TaskCost) -> None:
        """Raise the paper's 'GPU OOM' condition if the working set cannot fit."""
        from repro.hardware.gpu import GpuOutOfMemoryError

        if cost.gpu_memory_bytes > self.gpu.memory_bytes:
            raise GpuOutOfMemoryError(
                cost.gpu_memory_bytes, self.gpu.memory_bytes, self.gpu.name
            )

    def check_host_memory(self, cost: TaskCost) -> None:
        """Raise 'CPU OOM' if the host working set exceeds node RAM."""
        from repro.hardware.memory import HostOutOfMemoryError

        if cost.host_memory_bytes > self.cluster.node.ram_bytes:
            raise HostOutOfMemoryError(
                cost.host_memory_bytes, self.cluster.node.ram_bytes
            )
