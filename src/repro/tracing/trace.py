"""Trace records for task-processing stages.

Each task goes through the stages of the paper's Figure 4; the runtime
emits one :class:`StageRecord` per stage plus a :class:`TaskRecord`
summarising the whole task.  Times are simulated seconds for the simulated
backend and wall-clock seconds for the in-process backend.

Storage is columnar: the hot append paths (``add_stage_row`` and
friends, used by the simulated executor) write primitive values into
typed :mod:`array` buffers with task-type and outcome strings interned
to small integer ids, and the record objects are materialised lazily on
first access of :attr:`Trace.stages` / :attr:`Trace.tasks` /
:attr:`Trace.attempts`.  A million-task replay that only reads the
makespan and record counts therefore never builds a single record
object; analysis passes that do iterate records see exactly the objects
the eager API would have produced, in the same order.
"""

from __future__ import annotations

import enum
import math
from array import array
from dataclasses import dataclass


class Stage(str, enum.Enum):
    """Task-processing stages (Figure 4 of the paper).

    ``FAILURE`` and ``RETRY_WAIT`` extend the figure with the fault path
    of :mod:`repro.faults`: a zero-duration failure marker at the instant
    an attempt dies, and the master-side backoff before the task is
    re-queued.  The recovery path adds two more: ``RECOMPUTE`` marks a
    committed task being resurrected because its output blocks were lost
    with a node, and ``CHECKPOINT_WRITE`` is the modeled cost of
    persisting a task's outputs to shared storage under a
    :class:`~repro.faults.CheckpointPolicy`.
    """

    SCHEDULING = "scheduling"
    DESERIALIZATION = "deserialization"
    SERIAL_FRACTION = "serial_fraction"
    PARALLEL_FRACTION = "parallel_fraction"
    CPU_GPU_COMM = "cpu_gpu_comm"
    SERIALIZATION = "serialization"
    FAILURE = "failure"
    RETRY_WAIT = "retry_wait"
    RECOMPUTE = "recompute"
    CHECKPOINT_WRITE = "checkpoint_write"


#: Dense stage ids for the columnar buffers (enum order is stable).
_STAGES = tuple(Stage)
_STAGE_INDEX = {stage: index for index, stage in enumerate(_STAGES)}


@dataclass(frozen=True, slots=True)
class StageRecord:
    """One stage of one task attempt."""

    task_id: int
    task_type: str
    stage: Stage
    start: float
    end: float
    node: int
    core: int
    level: int
    used_gpu: bool
    #: 1-based attempt number the stage belongs to (1 = first try).
    attempt: int = 1

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(
                f"stage {self.stage} of task {self.task_id} ends before it starts"
            )

    @property
    def duration(self) -> float:
        """Stage duration in seconds."""
        return self.end - self.start


@dataclass(frozen=True, slots=True)
class TaskRecord:
    """Whole-task summary (the successful attempt)."""

    task_id: int
    task_type: str
    start: float
    end: float
    node: int
    core: int
    level: int
    used_gpu: bool
    #: 1-based number of the attempt that succeeded (1 = no retries).
    attempt: int = 1

    @property
    def duration(self) -> float:
        """Task duration in seconds, scheduling included."""
        return self.end - self.start


#: Outcome label of a successful attempt; failures carry the fault kind
#: ("crash", "node_failure", "gpu_oom").
ATTEMPT_OK = "success"


@dataclass(frozen=True, slots=True)
class TaskAttempt:
    """One try of one task, successful or not.

    Attempt records are emitted only by fault-injecting executions (a
    fault-free trace carries the same information in its task records);
    ``outcome`` is :data:`ATTEMPT_OK` or the failure kind.
    """

    task_id: int
    task_type: str
    attempt: int
    start: float
    end: float
    node: int
    core: int
    level: int
    used_gpu: bool
    outcome: str

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(
                f"attempt {self.attempt} of task {self.task_id} "
                "ends before it starts"
            )
        if self.attempt < 1:
            raise ValueError("attempt numbers are 1-based")

    @property
    def ok(self) -> bool:
        """Whether the attempt completed the task."""
        return self.outcome == ATTEMPT_OK

    @property
    def duration(self) -> float:
        """Attempt duration in seconds."""
        return self.end - self.start


class _Columns:
    """Typed column buffers for not-yet-materialised records.

    One instance backs one record kind; ``kind`` holds the stage id for
    stage rows and the outcome id for attempt rows (unused for task
    rows).  Every column is an :mod:`array` of primitives, so a pending
    record costs ~50 bytes instead of a boxed dataclass.
    """

    __slots__ = (
        "task_id", "type_id", "kind", "start", "end",
        "node", "core", "level", "used_gpu", "attempt",
    )

    def __init__(self) -> None:
        self.task_id = array("q")
        self.type_id = array("i")
        self.kind = array("i")
        self.start = array("d")
        self.end = array("d")
        self.node = array("i")
        self.core = array("i")
        self.level = array("i")
        self.used_gpu = array("b")
        self.attempt = array("i")

    def __len__(self) -> int:
        return len(self.task_id)


class Trace:
    """An append-only collection of stage, task, and attempt records."""

    def __init__(self) -> None:
        # Materialised record prefix + pending columnar suffix per kind.
        # Appending a record object first drains the pending columns, so
        # the two append styles can interleave without reordering.
        self._stage_records: list[StageRecord] = []
        self._stage_cols = _Columns()
        self._task_records: list[TaskRecord] = []
        self._task_cols = _Columns()
        self._attempt_records: list[TaskAttempt] = []
        self._attempt_cols = _Columns()
        #: Interned string table shared by task types and outcomes.
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}

    def _intern(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = len(self._names)
            self._name_ids[name] = name_id
            self._names.append(name)
        return name_id

    # ---------------------------------------------------------- fast appends
    def add_stage_row(
        self,
        task_id: int,
        task_type: str,
        stage: Stage,
        start: float,
        end: float,
        node: int,
        core: int,
        level: int,
        used_gpu: bool,
        attempt: int = 1,
    ) -> None:
        """Append one stage as primitive columns (no record object)."""
        if end < start:
            raise ValueError(
                f"stage {stage} of task {task_id} ends before it starts"
            )
        cols = self._stage_cols
        cols.task_id.append(task_id)
        cols.type_id.append(self._intern(task_type))
        cols.kind.append(_STAGE_INDEX[stage])
        cols.start.append(start)
        cols.end.append(end)
        cols.node.append(node)
        cols.core.append(core)
        cols.level.append(level)
        cols.used_gpu.append(used_gpu)
        cols.attempt.append(attempt)

    def add_task_row(
        self,
        task_id: int,
        task_type: str,
        start: float,
        end: float,
        node: int,
        core: int,
        level: int,
        used_gpu: bool,
        attempt: int = 1,
    ) -> None:
        """Append one whole-task summary as primitive columns."""
        cols = self._task_cols
        cols.task_id.append(task_id)
        cols.type_id.append(self._intern(task_type))
        cols.kind.append(0)
        cols.start.append(start)
        cols.end.append(end)
        cols.node.append(node)
        cols.core.append(core)
        cols.level.append(level)
        cols.used_gpu.append(used_gpu)
        cols.attempt.append(attempt)

    def add_attempt_row(
        self,
        task_id: int,
        task_type: str,
        attempt: int,
        start: float,
        end: float,
        node: int,
        core: int,
        level: int,
        used_gpu: bool,
        outcome: str,
    ) -> None:
        """Append one task attempt as primitive columns."""
        if end < start:
            raise ValueError(
                f"attempt {attempt} of task {task_id} ends before it starts"
            )
        if attempt < 1:
            raise ValueError("attempt numbers are 1-based")
        cols = self._attempt_cols
        cols.task_id.append(task_id)
        cols.type_id.append(self._intern(task_type))
        cols.kind.append(self._intern(outcome))
        cols.start.append(start)
        cols.end.append(end)
        cols.node.append(node)
        cols.core.append(core)
        cols.level.append(level)
        cols.used_gpu.append(used_gpu)
        cols.attempt.append(attempt)

    # -------------------------------------------------------- record appends
    def add_stage(self, record: StageRecord) -> None:
        """Append a stage record."""
        self.stages.append(record)

    def add_task(self, record: TaskRecord) -> None:
        """Append a whole-task record."""
        self.tasks.append(record)

    def add_attempt(self, record: TaskAttempt) -> None:
        """Append a task-attempt record."""
        self.attempts.append(record)

    # ------------------------------------------------------- materialisation
    @property
    def stages(self) -> list[StageRecord]:
        """All stage records, materialising any pending columns."""
        cols = self._stage_cols
        if len(cols):
            names = self._names
            self._stage_records.extend(
                StageRecord(
                    task_id=cols.task_id[i],
                    task_type=names[cols.type_id[i]],
                    stage=_STAGES[cols.kind[i]],
                    start=cols.start[i],
                    end=cols.end[i],
                    node=cols.node[i],
                    core=cols.core[i],
                    level=cols.level[i],
                    used_gpu=bool(cols.used_gpu[i]),
                    attempt=cols.attempt[i],
                )
                for i in range(len(cols))
            )
            self._stage_cols = _Columns()
        return self._stage_records

    @property
    def tasks(self) -> list[TaskRecord]:
        """All whole-task records, materialising any pending columns."""
        cols = self._task_cols
        if len(cols):
            names = self._names
            self._task_records.extend(
                TaskRecord(
                    task_id=cols.task_id[i],
                    task_type=names[cols.type_id[i]],
                    start=cols.start[i],
                    end=cols.end[i],
                    node=cols.node[i],
                    core=cols.core[i],
                    level=cols.level[i],
                    used_gpu=bool(cols.used_gpu[i]),
                    attempt=cols.attempt[i],
                )
                for i in range(len(cols))
            )
            self._task_cols = _Columns()
        return self._task_records

    @property
    def attempts(self) -> list[TaskAttempt]:
        """All attempt records, materialising any pending columns."""
        cols = self._attempt_cols
        if len(cols):
            names = self._names
            self._attempt_records.extend(
                TaskAttempt(
                    task_id=cols.task_id[i],
                    task_type=names[cols.type_id[i]],
                    attempt=cols.attempt[i],
                    start=cols.start[i],
                    end=cols.end[i],
                    node=cols.node[i],
                    core=cols.core[i],
                    level=cols.level[i],
                    used_gpu=bool(cols.used_gpu[i]),
                    outcome=names[cols.kind[i]],
                )
                for i in range(len(cols))
            )
            self._attempt_cols = _Columns()
        return self._attempt_records

    # ---------------------------------------------------------- cheap counts
    @property
    def num_stage_records(self) -> int:
        """Stage-record count without materialising pending columns."""
        return len(self._stage_records) + len(self._stage_cols)

    @property
    def num_task_records(self) -> int:
        """Task-record count without materialising pending columns."""
        return len(self._task_records) + len(self._task_cols)

    @property
    def num_attempt_records(self) -> int:
        """Attempt-record count without materialising pending columns."""
        return len(self._attempt_records) + len(self._attempt_cols)

    # -------------------------------------------------------------- analysis
    @property
    def makespan(self) -> float:
        """Wall time from the first task start to the last task end.

        Counts successful tasks only; :attr:`recovered_span` additionally
        covers failed attempts and retry waits.  Computed straight from
        the column buffers, so reading it does not materialise records.
        """
        lo = math.inf
        hi = -math.inf
        for record in self._task_records:
            lo = min(lo, record.start)
            hi = max(hi, record.end)
        cols = self._task_cols
        if len(cols):
            lo = min(lo, min(cols.start))
            hi = max(hi, max(cols.end))
        if lo is math.inf:
            return 0.0
        return hi - lo

    @property
    def recovered_span(self) -> float:
        """Wall time including failed attempts and retry backoff.

        Equals :attr:`makespan` for fault-free traces; for a run that
        failed permanently (no successful record of some task) this is
        the only span covering the work actually performed.
        """
        points = [(t.start, t.end) for t in self.tasks]
        points += [(a.start, a.end) for a in self.attempts]
        points += [
            (r.start, r.end)
            for r in self.stages
            if r.stage in (Stage.FAILURE, Stage.RETRY_WAIT)
        ]
        if not points:
            return 0.0
        return max(end for _, end in points) - min(start for start, _ in points)

    def occupancy(self) -> list["TaskAttempt"] | list["TaskRecord"]:
        """The records that describe core occupancy over time.

        Fault-injecting executions record every try as a
        :class:`TaskAttempt`; fault-free executions carry the same
        information in their task records.  Resource-accounting passes
        (per-core overlap, RAM/GPU conservation) should sweep these
        records rather than picking one of the two lists themselves.
        """
        if self.num_attempt_records:
            return self.attempts
        return self.tasks

    def attempts_of(self, task_id: int) -> list["TaskAttempt"]:
        """All attempts of one task, ordered by attempt number."""
        return sorted(
            (a for a in self.attempts if a.task_id == task_id),
            key=lambda a: a.attempt,
        )

    def attempt_counts(self) -> dict[int, int]:
        """Tries per task id.

        Falls back to the task records (one attempt each) when the trace
        carries no attempt records — i.e. for fault-free executions.
        """
        if not self.num_attempt_records:
            return {t.task_id: 1 for t in self.tasks}
        counts: dict[int, int] = {}
        for attempt in self.attempts:
            counts[attempt.task_id] = max(
                counts.get(attempt.task_id, 0), attempt.attempt
            )
        return counts

    def stages_of(self, stage: Stage) -> list[StageRecord]:
        """All records of one stage kind."""
        return [r for r in self.stages if r.stage is stage]

    def stages_of_task_type(self, task_type: str) -> list[StageRecord]:
        """All stage records belonging to one task type."""
        return [r for r in self.stages if r.task_type == task_type]

    def task_types(self) -> list[str]:
        """Distinct task types in first-seen order."""
        seen: dict[str, None] = {}
        for record in self.tasks:
            seen.setdefault(record.task_type, None)
        return list(seen)

    def levels(self) -> list[int]:
        """Distinct DAG levels present, ascending."""
        return sorted({t.level for t in self.tasks})
