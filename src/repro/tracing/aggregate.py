"""Metric aggregation (§4.2 of the paper).

Three metric families:

* **Task user code metrics** — averaged per task type: serial-fraction,
  parallel-fraction, CPU-GPU communication, and total user-code time.
* **Data movement overheads** — (de-)serialization times grouped per CPU
  core across all task types.
* **Task-level metrics** — parallel-task execution time per DAG level
  (wall time of each level, averaged over the levels that contain
  parallel-eligible tasks, i.e. one value per "algorithm iteration").
* **Fault metrics** — goodput vs. wasted work of a fault-injected
  execution: core-seconds spent in successful attempts against
  core-seconds burned in failed attempts and retry backoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean

from repro.tracing.trace import Stage, StageRecord, Trace


@dataclass(frozen=True)
class UserCodeMetrics:
    """Per-task averages for one task type."""

    task_type: str
    num_tasks: int
    serial_fraction: float
    parallel_fraction: float
    cpu_gpu_comm: float

    @property
    def user_code(self) -> float:
        """Average task user-code time (serial + parallel + communication)."""
        return self.serial_fraction + self.parallel_fraction + self.cpu_gpu_comm


@dataclass(frozen=True)
class DataMovementMetrics:
    """(De-)serialization averages grouped per CPU core."""

    num_cores: int
    deserialization_per_core: float
    serialization_per_core: float

    @property
    def total_per_core(self) -> float:
        """Average combined data-movement time per core."""
        return self.deserialization_per_core + self.serialization_per_core


@dataclass(frozen=True)
class ParallelTaskMetrics:
    """Per-DAG-level wall times."""

    level_wall_times: dict[int, float]
    parallel_levels: tuple[int, ...]

    @property
    def average_parallel_time(self) -> float:
        """Mean wall time over the levels holding parallel-eligible tasks."""
        if not self.parallel_levels:
            return 0.0
        return mean(self.level_wall_times[level] for level in self.parallel_levels)

    @property
    def total_time(self) -> float:
        """Sum of all level wall times (lower bound on the makespan)."""
        return sum(self.level_wall_times.values())


@dataclass(frozen=True)
class FaultMetrics:
    """Goodput vs. wasted work of one (possibly fault-injected) run."""

    #: Attempts across all tasks (equals task count for fault-free runs).
    num_attempts: int
    #: Attempts that died (crash, node failure, GPU OOM).
    num_failures: int
    #: Tasks that needed more than one attempt.
    retried_tasks: int
    #: Core-seconds spent in attempts that completed their task.
    goodput_seconds: float
    #: Core-seconds burned in failed attempts.
    wasted_seconds: float
    #: Simulated seconds spent in retry backoff (master-side, off-core).
    retry_wait_seconds: float
    #: Committed tasks resurrected by lineage recovery to recompute
    #: blocks lost with a dead node.
    tasks_resurrected: int = 0
    #: Checkpoint writes the checkpoint policy performed.
    checkpoint_writes: int = 0
    #: Simulated seconds spent writing checkpoints to shared storage.
    checkpoint_write_seconds: float = 0.0

    @property
    def goodput_ratio(self) -> float:
        """Share of attempt core-seconds that produced committed work."""
        busy = self.goodput_seconds + self.wasted_seconds
        if busy <= 0.0:
            return 1.0
        return self.goodput_seconds / busy


def fault_metrics(trace: Trace) -> FaultMetrics:
    """Aggregate goodput and wasted work from a trace.

    Fault-free traces (no attempt records) report their task records as
    one successful attempt each, so the metric is defined for every
    execution.
    """
    retry_wait = sum(
        r.duration for r in trace.stages if r.stage is Stage.RETRY_WAIT
    )
    resurrected = sum(1 for r in trace.stages if r.stage is Stage.RECOMPUTE)
    checkpoints = [r for r in trace.stages if r.stage is Stage.CHECKPOINT_WRITE]
    if not trace.attempts:
        return FaultMetrics(
            num_attempts=len(trace.tasks),
            num_failures=0,
            retried_tasks=0,
            goodput_seconds=sum(t.duration for t in trace.tasks),
            wasted_seconds=0.0,
            retry_wait_seconds=retry_wait,
            tasks_resurrected=resurrected,
            checkpoint_writes=len(checkpoints),
            checkpoint_write_seconds=sum(r.duration for r in checkpoints),
        )
    failures = [a for a in trace.attempts if not a.ok]
    successes = [a for a in trace.attempts if a.ok]
    retried = {a.task_id for a in trace.attempts if a.attempt > 1}
    return FaultMetrics(
        num_attempts=len(trace.attempts),
        num_failures=len(failures),
        retried_tasks=len(retried),
        goodput_seconds=sum(a.duration for a in successes),
        wasted_seconds=sum(a.duration for a in failures),
        retry_wait_seconds=retry_wait,
        tasks_resurrected=resurrected,
        checkpoint_writes=len(checkpoints),
        checkpoint_write_seconds=sum(r.duration for r in checkpoints),
    )


def _mean_per_task(records: list[StageRecord], num_tasks: int) -> float:
    """Average per-task total duration of a stage.

    A task may emit several records for one stage (e.g. the host-to-device
    and device-to-host halves of CPU-GPU communication); they are summed
    per task before averaging.
    """
    if not records or num_tasks == 0:
        return 0.0
    return sum(r.duration for r in records) / num_tasks


def user_code_metrics(trace: Trace) -> dict[str, UserCodeMetrics]:
    """Average user-code stage times per task type (§4.2)."""
    result: dict[str, UserCodeMetrics] = {}
    for task_type in trace.task_types():
        records = trace.stages_of_task_type(task_type)
        by_stage: dict[Stage, list[StageRecord]] = {}
        for record in records:
            by_stage.setdefault(record.stage, []).append(record)
        num_tasks = len({r.task_id for r in records}) or 1
        result[task_type] = UserCodeMetrics(
            task_type=task_type,
            num_tasks=num_tasks,
            serial_fraction=_mean_per_task(
                by_stage.get(Stage.SERIAL_FRACTION, []), num_tasks
            ),
            parallel_fraction=_mean_per_task(
                by_stage.get(Stage.PARALLEL_FRACTION, []), num_tasks
            ),
            cpu_gpu_comm=_mean_per_task(
                by_stage.get(Stage.CPU_GPU_COMM, []), num_tasks
            ),
        )
    return result


def data_movement_metrics(trace: Trace) -> DataMovementMetrics:
    """(De-)serialization time averaged per CPU core, all task types (§4.2)."""
    deser: dict[tuple[int, int], float] = {}
    ser: dict[tuple[int, int], float] = {}
    for record in trace.stages:
        core_key = (record.node, record.core)
        if record.stage is Stage.DESERIALIZATION:
            deser[core_key] = deser.get(core_key, 0.0) + record.duration
        elif record.stage is Stage.SERIALIZATION:
            ser[core_key] = ser.get(core_key, 0.0) + record.duration
    cores = set(deser) | set(ser)
    if not cores:
        return DataMovementMetrics(0, 0.0, 0.0)
    num_cores = len(cores)
    return DataMovementMetrics(
        num_cores=num_cores,
        deserialization_per_core=sum(deser.values()) / num_cores,
        serialization_per_core=sum(ser.values()) / num_cores,
    )


def parallel_task_metrics(
    trace: Trace,
    parallel_task_types: set[str] | None = None,
) -> ParallelTaskMetrics:
    """Wall time of each DAG level (§4.2's parallel task execution time).

    ``parallel_task_types`` selects which task types count as the
    algorithm's parallel tasks (e.g. ``partial_sum`` for K-means); when
    omitted, every level counts.
    """
    starts: dict[int, float] = {}
    ends: dict[int, float] = {}
    level_types: dict[int, set[str]] = {}
    for task in trace.tasks:
        starts[task.level] = min(starts.get(task.level, task.start), task.start)
        ends[task.level] = max(ends.get(task.level, task.end), task.end)
        level_types.setdefault(task.level, set()).add(task.task_type)
    wall = {level: ends[level] - starts[level] for level in starts}
    if parallel_task_types is None:
        parallel_levels = tuple(sorted(wall))
    else:
        parallel_levels = tuple(
            sorted(
                level
                for level, types in level_types.items()
                if types & parallel_task_types
            )
        )
    return ParallelTaskMetrics(level_wall_times=wall, parallel_levels=parallel_levels)
