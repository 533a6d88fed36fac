"""Incremental per-node locality-bytes index for ready tasks (``docs/performance.md``).

``DataLocalityScheduler`` scores the one ready task it places, by the
input bytes resident on each usable node.  This index hands it the
task's per-node byte map in one dictionary lookup
(:meth:`LocalityIndex.bytes_map`) by aggregating each ready task's
input bytes **once**, when the task enters the ready set, rather than
resolving the placed task's inputs on every decision.  Which task to
place and which nodes are usable are the scheduler's own concern: it
reads the heads of the ready set's parts
(:class:`~repro.runtime.scheduler.ReadyParts`, which the executor
maintains next to this index) instead of walking the ready queue, and
probes the nodes once per distinct requirement per decision, so a
decision costs O(parts) lookups and one byte map, however many tasks
are ready.

Correctness rests on two facts about the simulated executor:

* a task enters the ready set only after every producer has committed,
  so the residency of its inputs is final at insertion time — blocks
  never *move* while a consumer is ready;
* the only later residency change is *loss*: a node failure destroys
  the blocks it held, which :meth:`LocalityIndex.drop_node` applies to
  every affected ready task in one sweep.

Scores are therefore identical to recomputing :func:`bytes_by_node`
from scratch after every completion event — the property test in
``tests/test_scheduler_properties.py`` asserts exactly that equivalence
on random generated DAGs.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.runtime.data import DataRef
from repro.runtime.task import Task

#: Resolves a ref to the node its block currently resides on, or ``None``
#: when the block is off-cluster (lost with a failed node, or on shared
#: storage from the scheduler's point of view).
ResidencyResolver = Callable[[DataRef], "int | None"]

_EMPTY: Mapping[int, int] = {}


def bytes_by_node(task: Task, resolve: ResidencyResolver) -> dict[int, int]:
    """Input bytes of ``task`` per node, as ``resolve`` places its inputs.

    Duplicate input refs count once per occurrence; refs that resolve to
    ``None`` count nowhere.
    """
    by_node: dict[int, int] = {}
    for ref in task.inputs:
        node = resolve(ref)
        if node is not None:
            by_node[node] = by_node.get(node, 0) + ref.size_bytes
    return by_node


class LocalityIndex:
    """Per-(ready task, node) input-byte totals, maintained incrementally."""

    def __init__(self) -> None:
        #: task_id -> {node -> resident input bytes} (sparse: only nodes
        #: holding at least one input block appear).
        self._per_task: dict[int, dict[int, int]] = {}
        #: node -> ids of indexed tasks with bytes on that node (reverse
        #: index, so a node failure invalidates in one sweep).
        self._node_tasks: dict[int, set[int]] = {}

    def __contains__(self, task_id: int) -> bool:
        return task_id in self._per_task

    def __len__(self) -> int:
        return len(self._per_task)

    def add(self, task: Task, resolve: ResidencyResolver) -> None:
        """Index one task entering the ready set (see :func:`bytes_by_node`)."""
        by_node = bytes_by_node(task, resolve)
        self._per_task[task.task_id] = by_node
        for node in by_node:
            self._node_tasks.setdefault(node, set()).add(task.task_id)

    def discard(self, task_id: int) -> None:
        """Drop a task leaving the ready set (dispatched or failed)."""
        by_node = self._per_task.pop(task_id, None)
        if not by_node:
            return
        for node in by_node:
            tasks = self._node_tasks.get(node)
            if tasks is not None:
                tasks.discard(task_id)

    def drop_node(self, node: int) -> None:
        """Forget every block on ``node`` (the node failed, blocks lost)."""
        for task_id in self._node_tasks.pop(node, ()):
            self._per_task[task_id].pop(node, None)

    def bytes_map(self, task_id: int) -> Mapping[int, int] | None:
        """The task's per-node byte totals, or ``None`` when not indexed."""
        return self._per_task.get(task_id)

    def bytes_for(self, task_id: int, node: int) -> int:
        """Resident input bytes of ``task_id`` on ``node`` (O(1))."""
        return self._per_task.get(task_id, _EMPTY).get(node, 0)

    def snapshot(self) -> dict[int, dict[int, int]]:
        """Deep copy of the per-task state (for equivalence tests)."""
        return {
            task_id: dict(by_node) for task_id, by_node in self._per_task.items()
        }
