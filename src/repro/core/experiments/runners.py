"""Shared machinery for the per-figure experiment runners.

:func:`run_workflow` executes one workflow under one configuration on the
simulated backend and extracts the §4.2 metrics, turning the two
out-of-memory conditions into statuses instead of exceptions — the
figures' "GPU OOM" / "CPU GPU OOM" regions are data points, not crashes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from repro.hardware import (
    ClusterSpec,
    GpuOutOfMemoryError,
    HostOutOfMemoryError,
    StorageKind,
    minotauro,
)
from repro.runtime import Runtime, RuntimeConfig, SchedulingPolicy
from repro.tracing import (
    DataMovementMetrics,
    UserCodeMetrics,
    data_movement_metrics,
    parallel_task_metrics,
    trace_digest,
    user_code_metrics,
)

#: Status strings used across all experiment outputs.
STATUS_OK = "ok"
STATUS_GPU_OOM = "gpu_oom"
STATUS_CPU_OOM = "cpu_oom"


class Workflow(Protocol):
    """What a workload must provide to be runnable by the harness."""

    name: str
    parallel_task_types: frozenset[str]

    def build(self, runtime: Runtime, materialize: bool = False) -> object:
        """Submit all tasks to the runtime."""


@dataclass
class RunMetrics:
    """Metrics of one (workflow, configuration) execution."""

    status: str
    use_gpu: bool
    storage: StorageKind
    scheduling: SchedulingPolicy
    makespan: float = 0.0
    #: §4.2 task-user-code metrics per task type.
    user_code: dict[str, UserCodeMetrics] = field(default_factory=dict)
    #: §4.2 data-movement metrics, per CPU core.
    movement: DataMovementMetrics | None = None
    #: §4.2 parallel-task execution time (mean over parallel levels).
    parallel_task_time: float = 0.0
    dag_width: int = 0
    dag_height: int = 0
    num_tasks: int = 0
    error: str = ""
    #: Canonical digest of the execution trace (``repro.tracing.golden``),
    #: recorded when the run goes through the sweep engine so cached
    #: results carry provable provenance.  Empty for plain direct runs.
    trace_digest: str = ""

    @property
    def ok(self) -> bool:
        """Whether the run completed (no OOM)."""
        return self.status == STATUS_OK


def run_workflow(
    workflow: Workflow,
    use_gpu: bool,
    storage: StorageKind = StorageKind.SHARED,
    scheduling: SchedulingPolicy = SchedulingPolicy.GENERATION_ORDER,
    cluster: ClusterSpec | None = None,
    with_trace_digest: bool = False,
) -> RunMetrics:
    """Execute one workflow on the simulated backend and collect metrics.

    ``with_trace_digest`` additionally records the canonical golden-trace
    digest on the returned metrics (used by the sweep engine so cache
    records are verifiable against a fresh execution).
    """
    config = RuntimeConfig(
        cluster=cluster or minotauro(),
        storage=storage,
        scheduling=scheduling,
        use_gpu=use_gpu,
    )
    runtime = Runtime(config)
    workflow.build(runtime)
    metrics = RunMetrics(
        status=STATUS_OK,
        use_gpu=use_gpu,
        storage=storage,
        scheduling=scheduling,
        dag_width=runtime.graph.width,
        dag_height=runtime.graph.height,
        num_tasks=runtime.graph.num_tasks,
    )
    try:
        result = runtime.run()
    except GpuOutOfMemoryError as error:
        metrics.status = STATUS_GPU_OOM
        metrics.error = str(error)
        return metrics
    except HostOutOfMemoryError as error:
        metrics.status = STATUS_CPU_OOM
        metrics.error = str(error)
        return metrics
    metrics.makespan = result.makespan
    metrics.user_code = user_code_metrics(result.trace)
    metrics.movement = data_movement_metrics(result.trace)
    metrics.parallel_task_time = parallel_task_metrics(
        result.trace, set(workflow.parallel_task_types)
    ).average_parallel_time
    if with_trace_digest:
        metrics.trace_digest = trace_digest(result.trace)
    return metrics


def speedup(cpu_value: float, gpu_value: float) -> float | None:
    """GPU-over-CPU speedup, ``None`` when undefined."""
    if gpu_value <= 0 or cpu_value <= 0:
        return None
    return cpu_value / gpu_value


@dataclass
class CpuGpuPair:
    """One configuration run on both processor types, compared.

    The base of every CPU-vs-GPU figure result: each subclass adds only
    its own coordinates (block size, cluster count, ...) and names the
    stages it reports.
    """

    cpu: RunMetrics
    gpu: RunMetrics

    @property
    def status(self) -> str:
        """'ok' unless a run hit an OOM condition (the CPU run's first)."""
        for metrics in (self.cpu, self.gpu):
            if not metrics.ok:
                return metrics.status
        return STATUS_OK

    def stage(self, use_gpu: bool, task_type: str, attr: str) -> float | None:
        """One averaged stage duration of ``task_type`` on one processor.

        ``None`` when that run hit an OOM or never ran the task type.
        """
        metrics = self.gpu if use_gpu else self.cpu
        if not metrics.ok or task_type not in metrics.user_code:
            return None
        return getattr(metrics.user_code[task_type], attr)

    def stage_speedup(self, task_type: str, attr: str) -> float | None:
        """GPU-over-CPU speedup of one stage; ``None`` unless both ran it."""
        cpu = self.stage(False, task_type, attr)
        gpu = self.stage(True, task_type, attr)
        if cpu is None or gpu is None:
            return None
        return speedup(cpu, gpu)

    @property
    def parallel_tasks_speedup(self) -> float | None:
        """GPU speedup of the distributed parallel-task execution."""
        if self.status != STATUS_OK:
            return None
        return speedup(self.cpu.parallel_task_time, self.gpu.parallel_task_time)
