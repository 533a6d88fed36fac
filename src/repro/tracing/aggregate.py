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

from collections import Counter, defaultdict
from dataclasses import dataclass
from statistics import mean

from repro.tracing.trace import STAGE_INDEX, Stage, Trace

#: Stage ids (column values) of the user-code stages, in
#: :class:`UserCodeMetrics` field order, and of the data-movement stages.
_USER_CODE = tuple(
    STAGE_INDEX[stage]
    for stage in (Stage.SERIAL_FRACTION, Stage.PARALLEL_FRACTION, Stage.CPU_GPU_COMM)
)
_DESERIALIZATION = STAGE_INDEX[Stage.DESERIALIZATION]
_SERIALIZATION = STAGE_INDEX[Stage.SERIALIZATION]


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
    if not trace.attempts:
        return FaultMetrics(
            num_attempts=len(trace.tasks),
            num_failures=0,
            retried_tasks=0,
            goodput_seconds=sum(t.duration for t in trace.tasks),
            wasted_seconds=0.0,
            retry_wait_seconds=retry_wait,
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
    )


def user_code_metrics(trace: Trace) -> dict[str, UserCodeMetrics]:
    """Average user-code stage times per task type (§4.2).

    A task may emit several records for one stage (e.g. the host-to-device
    and device-to-host halves of CPU-GPU communication); each stage's
    durations are summed over the type's tasks and divided by their count.
    """
    cols = trace.stage_columns
    durations: defaultdict[tuple[int, int], list[float]] = defaultdict(list)
    keys = zip(cols.type_id, cols.kind)
    for key, start, end in zip(keys, cols.start, cols.end):
        durations[key].append(end - start)
    num_tasks = Counter(
        type_id for type_id, _ in dict.fromkeys(zip(cols.type_id, cols.task_id))
    )
    names = trace.names
    result: dict[str, UserCodeMetrics] = {}
    for type_id in dict.fromkeys(trace.task_columns.type_id):
        tasks = num_tasks[type_id] or 1
        averages = [
            sum(durations[type_id, stage]) / tasks
            if (type_id, stage) in durations else 0.0
            for stage in _USER_CODE
        ]
        result[names[type_id]] = UserCodeMetrics(names[type_id], tasks, *averages)
    return result


def data_movement_metrics(trace: Trace) -> DataMovementMetrics:
    """(De-)serialization time averaged per CPU core, all task types (§4.2)."""
    cols = trace.stage_columns
    deser: dict[tuple[int, int], float] = {}
    ser: dict[tuple[int, int], float] = {}
    for kind, node, core, start, end in zip(
        cols.kind, cols.node, cols.core, cols.start, cols.end
    ):
        if kind == _DESERIALIZATION:
            deser[node, core] = deser.get((node, core), 0.0) + (end - start)
        elif kind == _SERIALIZATION:
            ser[node, core] = ser.get((node, core), 0.0) + (end - start)
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
    cols = trace.task_columns
    starts: dict[int, float] = {}
    ends: dict[int, float] = {}
    # The same picks as ``min(old, start)`` and ``max(old, end)``.
    for level, start, end in zip(cols.level, cols.start, cols.end):
        lo = starts.get(level)
        if lo is None or start < lo:
            starts[level] = start
        hi = ends.get(level)
        if hi is None or end > hi:
            ends[level] = end
    wall = {level: ends[level] - starts[level] for level in starts}
    if parallel_task_types is None:
        parallel_levels = tuple(sorted(wall))
    else:
        names = trace.names
        parallel_levels = tuple(
            sorted(
                {
                    level
                    for level, type_id in dict.fromkeys(zip(cols.level, cols.type_id))
                    if names[type_id] in parallel_task_types
                }
            )
        )
    return ParallelTaskMetrics(level_wall_times=wall, parallel_levels=parallel_levels)
