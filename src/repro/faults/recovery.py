"""Lineage-based recovery: checkpoints and recovery metrics.

The retry policy re-runs *failed* attempts; this module adds the
pieces that let the simulated runtime survive losing blocks produced by
already-*completed* tasks, the way lineage-based task runtimes (Spark,
Dask, Ray) do:

* **Lineage recomputation** — when a task's input block resolves to a
  dead node, the executor walks the :class:`~repro.runtime.dag.TaskGraph`
  backwards, resurrects the minimal set of committed ancestors whose
  outputs are lost, and re-enqueues them before the consumer runs.  The
  walk terminates at workflow inputs (durable by definition) and at
  checkpointed refs.  Opt in with
  ``RetryPolicy(recover_lost_blocks=True)``.
* **:class:`CheckpointPolicy`** — barrier/interval checkpointing of
  block refs to shared storage (GPFS in the Minotauro preset) with a
  modeled write cost, cutting the recovery depth at the last checkpoint.

:class:`RecoveryMetrics` aggregates what recovery cost: blocks lost,
tasks resurrected, recomputation time and checkpoint overhead.  It is
surfaced on :class:`~repro.runtime.WorkflowResult`.  See
``docs/faults.md``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CheckpointPolicy:
    """Barrier checkpointing of task outputs to shared storage.

    Every ``every_levels``-th DAG level acts as a checkpoint barrier: a
    task on such a level pays an extra write of its output bytes through
    the cluster network and the shared-disk write channel (the modeled
    GPFS cost), and its output refs become *durable* — a later node
    failure cannot lose them, so lineage recomputation stops there.

    ``every_levels=1`` checkpoints every level (maximum overhead, minimum
    recovery depth); larger intervals trade recovery depth for write
    cost.  ``task_types`` restricts checkpointing to the named types
    (``None`` = all types), e.g. only the reduction barriers of an
    iterative algorithm.
    """

    #: Checkpoint every n-th DAG level (levels k*n - 1 for k = 1, 2, ...).
    every_levels: int = 1
    #: Only checkpoint these task types (``None`` = every type).
    task_types: frozenset[str] | None = None

    def __post_init__(self) -> None:
        if self.every_levels < 1:
            raise ValueError("every_levels must be >= 1")
        if self.task_types is not None:
            object.__setattr__(self, "task_types", frozenset(self.task_types))

    def applies(self, task_type: str, level: int) -> bool:
        """Whether a task of ``task_type`` on ``level`` checkpoints."""
        if (level + 1) % self.every_levels != 0:
            return False
        return self.task_types is None or task_type in self.task_types


@dataclass
class RecoveryMetrics:
    """What lineage recovery and checkpointing cost one run.

    All counters are zero for a fault-free execution (and for any run
    with recovery features disabled), so the object is defined for every
    :class:`~repro.runtime.WorkflowResult`.
    """

    #: Output blocks destroyed by node failures (checkpointed refs are
    #: durable and never counted).
    blocks_lost: int = 0
    #: Committed tasks re-enqueued because their outputs were lost.
    tasks_resurrected: int = 0
    #: Simulated seconds spent in the successful recomputation attempts
    #: of resurrected tasks (the recovery time the makespan absorbed).
    recompute_seconds: float = 0.0
    #: Checkpoint writes performed.
    checkpoint_writes: int = 0
    #: Simulated seconds spent writing checkpoints to shared storage.
    checkpoint_write_seconds: float = 0.0
