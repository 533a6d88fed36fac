"""Trace records for task-processing stages.

Each task goes through the stages of the paper's Figure 4; the runtime
emits one :class:`StageRecord` per stage plus a :class:`TaskRecord`
summarising the whole task.  Times are simulated seconds for the simulated
backend and wall-clock seconds for the in-process backend.

Storage is columnar, and the columns are the only store.  Every append
(``add_stage_row`` and friends, which the simulated executor calls, and
``add_stage``/``add_task``/``add_attempt``, which take a record) writes
primitive values into typed :mod:`array` buffers, with task-type and
outcome strings interned to small integer ids.  The metric and digest
passes (:mod:`repro.tracing.aggregate`, :mod:`repro.tracing.golden`),
the counts and the makespan read the columns and build no record.

:attr:`Trace.stages`, :attr:`Trace.tasks` and :attr:`Trace.attempts` are
views for passes that want record objects.  Each is built from the
columns on first read and, after further appends, extended as the same
list object, in emission order.  A view is never written back: editing
it changes what later readers of that view see, not the columns.
"""

from __future__ import annotations

import enum
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
STAGES = tuple(Stage)
STAGE_INDEX = {stage: index for index, stage in enumerate(STAGES)}


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


class Columns:
    """Typed column buffers of one record kind: the trace's store.

    ``kind`` holds the stage id (an index into :data:`STAGES`) for stage
    rows and the outcome's name id for attempt rows, and is unused for
    task rows; ``type_id`` and outcome ids index :attr:`Trace.names`.
    Every column is an :mod:`array` of primitives, so a row costs ~50
    bytes instead of a boxed dataclass.  Readers treat the arrays as
    read-only; only :class:`Trace`'s appends write them.
    """

    __slots__ = (
        "task_id", "type_id", "kind", "start", "end",
        "node", "core", "level", "used_gpu", "attempt",
        "_view", "_viewed",
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
        # The record view and the number of rows it covers (its length
        # can differ: callers may edit the view in place).
        self._view: list = []
        self._viewed = 0

    def __len__(self) -> int:
        return len(self.task_id)


class Trace:
    """An append-only collection of stage, task, and attempt records."""

    def __init__(self) -> None:
        self.stage_columns = Columns()
        self.task_columns = Columns()
        self.attempt_columns = Columns()
        #: Interned string table shared by task types and outcomes.
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}

    def _intern(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = len(self.names)
            self._name_ids[name] = name_id
            self.names.append(name)
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
        cols = self.stage_columns
        cols.task_id.append(task_id)
        cols.type_id.append(self._intern(task_type))
        cols.kind.append(STAGE_INDEX[stage])
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
        cols = self.task_columns
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
        cols = self.attempt_columns
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
        """Append a stage record as a row."""
        self.add_stage_row(
            record.task_id, record.task_type, record.stage, record.start,
            record.end, record.node, record.core, record.level,
            record.used_gpu, record.attempt,
        )

    def add_task(self, record: TaskRecord) -> None:
        """Append a whole-task record as a row."""
        self.add_task_row(
            record.task_id, record.task_type, record.start, record.end,
            record.node, record.core, record.level, record.used_gpu,
            record.attempt,
        )

    def add_attempt(self, record: TaskAttempt) -> None:
        """Append a task-attempt record as a row."""
        self.add_attempt_row(
            record.task_id, record.task_type, record.attempt, record.start,
            record.end, record.node, record.core, record.level,
            record.used_gpu, record.outcome,
        )

    # ----------------------------------------------------------------- views
    @property
    def stages(self) -> list[StageRecord]:
        """Stage records: a view of the columns, not written back."""
        c = self.stage_columns
        lo = c._viewed
        if lo < len(c):
            name = self.names.__getitem__
            c._view.extend(map(
                StageRecord, c.task_id[lo:], map(name, c.type_id[lo:]),
                map(STAGES.__getitem__, c.kind[lo:]), c.start[lo:],
                c.end[lo:], c.node[lo:], c.core[lo:], c.level[lo:],
                map(bool, c.used_gpu[lo:]), c.attempt[lo:],
            ))
            c._viewed = len(c)
        return c._view

    @property
    def tasks(self) -> list[TaskRecord]:
        """Whole-task records: a view of the columns, not written back."""
        c = self.task_columns
        lo = c._viewed
        if lo < len(c):
            name = self.names.__getitem__
            c._view.extend(map(
                TaskRecord, c.task_id[lo:], map(name, c.type_id[lo:]),
                c.start[lo:], c.end[lo:], c.node[lo:], c.core[lo:],
                c.level[lo:], map(bool, c.used_gpu[lo:]), c.attempt[lo:],
            ))
            c._viewed = len(c)
        return c._view

    @property
    def attempts(self) -> list[TaskAttempt]:
        """Attempt records: a view of the columns, not written back."""
        c = self.attempt_columns
        lo = c._viewed
        if lo < len(c):
            name = self.names.__getitem__
            c._view.extend(map(
                TaskAttempt, c.task_id[lo:], map(name, c.type_id[lo:]),
                c.attempt[lo:], c.start[lo:], c.end[lo:], c.node[lo:],
                c.core[lo:], c.level[lo:], map(bool, c.used_gpu[lo:]),
                map(name, c.kind[lo:]),
            ))
            c._viewed = len(c)
        return c._view

    # ---------------------------------------------------------------- counts
    @property
    def num_stage_records(self) -> int:
        """Stage-record count, read from the columns."""
        return len(self.stage_columns)

    @property
    def num_task_records(self) -> int:
        """Task-record count, read from the columns."""
        return len(self.task_columns)

    @property
    def num_attempt_records(self) -> int:
        """Attempt-record count, read from the columns."""
        return len(self.attempt_columns)

    # -------------------------------------------------------------- analysis
    @property
    def makespan(self) -> float:
        """Wall time from the first task start to the last task end.

        Counts successful tasks only; :attr:`recovered_span` additionally
        covers failed attempts and retry waits.  Read from the columns.
        """
        cols = self.task_columns
        if not len(cols):
            return 0.0
        return max(cols.end) - min(cols.start)

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

    def task_types(self) -> list[str]:
        """Distinct task types in first-seen order of the task rows."""
        names = self.names
        return [names[i] for i in dict.fromkeys(self.task_columns.type_id)]

    def levels(self) -> list[int]:
        """Distinct DAG levels present, ascending."""
        return sorted({t.level for t in self.tasks})
