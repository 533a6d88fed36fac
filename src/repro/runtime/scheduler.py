"""Task scheduling policies (§3.2).

PyCOMPSs offers several schedulers; the paper evaluates two:

* **Task generation order** (FIFO) — dispatch ready tasks in the order the
  application generated them, to the first node with free resources.
  Cheap decisions (low per-task latency).
* **Data locality** — prefer the node holding the largest share of a
  task's input bytes.  Better placement on local-disk storage at the price
  of a costlier decision per task.

The scheduler only *chooses* ``(task, node)``; resource reservation and
dispatch latency are applied by the executor, so policies stay pure and
easily testable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterator, Protocol, Sequence

from repro.runtime.task import Task

#: Decides whether one task must be placed on a GPU device.
GpuPredicate = Callable[[Task], bool]


def task_ram_bytes(task: Task) -> int:
    """Host working set a node must have free to run ``task``."""
    return task.cost.host_memory_bytes if task.cost is not None else 0


class SchedulingPolicy(str, enum.Enum):
    """Which scheduling policy the runtime uses.

    The paper evaluates ``GENERATION_ORDER`` and ``DATA_LOCALITY``
    (§4.4.2); ``LIFO`` is the third policy PyCOMPSs ships and is provided
    for completeness — it prioritises freshly generated tasks, which
    keeps hot intermediate data in use.
    """

    GENERATION_ORDER = "generation_order"
    DATA_LOCALITY = "data_locality"
    LIFO = "lifo"

    @property
    def label(self) -> str:
        """Name as used in the paper's figures."""
        if self is SchedulingPolicy.GENERATION_ORDER:
            return "task generation order"
        if self is SchedulingPolicy.LIFO:
            return "LIFO"
        return "data locality"


class ClusterView(Protocol):
    """What a scheduler may observe about the cluster.

    Views may additionally expose ``is_blacklisted(node) -> bool`` when
    recovery has excluded failed nodes from scheduling; policies consult
    it through :func:`node_usable`, and views without it (e.g. test
    stubs) are treated as having no blacklist.

    Two further optional attributes feed the data-locality policy:

    * ``resident_node(ref) -> int | None`` — the node a block currently
      resides on (``None`` = lost/off-cluster).  Without it, policies
      fall back to the ref's recorded ``home_node``, which can be stale
      when the block was since evicted or moved.
    * ``locality_index`` — a
      :class:`~repro.runtime.locality.LocalityIndex` over the ready set,
      making per-``(task, node)`` byte scores O(1) instead of a sum over
      the task's inputs.  Index scores must equal the resolver-based
      recomputation; the executor maintains that invariant.
    """

    def num_nodes(self) -> int:
        """Number of nodes."""

    def has_free_slot(self, node: int, needs_gpu: bool, ram_bytes: int = 0) -> bool:
        """Whether ``node`` can start one more task right now."""


def node_usable(
    cluster: ClusterView, node: int, needs_gpu: bool, ram_bytes: int = 0
) -> bool:
    """Whether a policy may place a task on ``node`` right now.

    Combines the resource check with the recovery blacklist, when the
    view exposes one.
    """
    is_blacklisted = getattr(cluster, "is_blacklisted", None)
    if is_blacklisted is not None and is_blacklisted(node):
        return False
    return cluster.has_free_slot(node, needs_gpu, ram_bytes)


@dataclass(frozen=True)
class Assignment:
    """A scheduling decision: run ``task`` on ``node``."""

    task: Task
    node: int


class Scheduler:
    """Base class: pick the next assignment from the ready queue.

    ``ready`` is ordered by task generation (ascending task id); policies
    may reorder.  Returns ``None`` when no ready task fits any node.
    """

    policy: SchedulingPolicy

    def select(
        self,
        ready: Sequence[Task],
        cluster: ClusterView,
        requires_gpu: GpuPredicate,
    ) -> Assignment | None:
        raise NotImplementedError

    def select_batch(
        self,
        ready: Sequence[Task],
        cluster: ClusterView,
        requires_gpu: GpuPredicate,
    ) -> Iterator[Assignment]:
        """Yield assignments until no ready task fits any node.

        The caller must commit each placement (claim cores/GPU/RAM and
        remove the task from ``ready``) before asking for the next one,
        so every decision observes the reservations of the earlier ones:
        the sequence of assignments (and any policy cursor state, e.g.
        round-robin node choice) is identical to repeated :meth:`select`
        calls.
        """
        while True:
            assignment = self.select(ready, cluster, requires_gpu)
            if assignment is None:
                return
            yield assignment


class GenerationOrderScheduler(Scheduler):
    """FIFO dispatch with round-robin node choice.

    The round-robin start index spreads consecutive tasks over nodes the
    way PyCOMPSs' ready scheduler spreads work over workers.
    """

    policy = SchedulingPolicy.GENERATION_ORDER

    def __init__(self) -> None:
        self._next_node = 0

    def select(
        self,
        ready: Sequence[Task],
        cluster: ClusterView,
        requires_gpu: GpuPredicate,
    ) -> Assignment | None:
        if not ready:
            return None
        task = ready[0]
        n = cluster.num_nodes()
        for offset in range(n):
            node = (self._next_node + offset) % n
            if node_usable(cluster, node, requires_gpu(task), task_ram_bytes(task)):
                self._next_node = (node + 1) % n
                return Assignment(task=task, node=node)
        return None


class LifoScheduler(Scheduler):
    """Dispatch the most recently generated ready task first."""

    policy = SchedulingPolicy.LIFO

    def __init__(self) -> None:
        self._next_node = 0

    def select(
        self,
        ready: Sequence[Task],
        cluster: ClusterView,
        requires_gpu: GpuPredicate,
    ) -> Assignment | None:
        if not ready:
            return None
        task = ready[len(ready) - 1]
        n = cluster.num_nodes()
        for offset in range(n):
            node = (self._next_node + offset) % n
            if node_usable(cluster, node, requires_gpu(task), task_ram_bytes(task)):
                self._next_node = (node + 1) % n
                return Assignment(task=task, node=node)
        return None


class DataLocalityScheduler(Scheduler):
    """Prefer the node owning the most input bytes of the head task.

    Falls back to the free node with the best locality score, so tasks
    never starve when their preferred node is busy.  Ties — common when a
    task's inputs live on no candidate node at all — are broken round-
    robin rather than always picking node 0, so locality scheduling
    degrades to generation-order spreading instead of piling tie tasks
    onto the first node.

    Scoring resolves each input against *current block residency*, not
    the ref's recorded ``home_node``: a block that was lost with a failed
    node (or otherwise evicted/moved since the ref was written) must not
    earn its stale location any locality credit.  Views that maintain a
    :class:`~repro.runtime.locality.LocalityIndex` over the ready set get
    O(1) scores per ``(task, node)`` pair; views exposing only a
    ``resident_node`` resolver get an O(inputs) sum; bare stubs fall back
    to ``home_node``.
    """

    policy = SchedulingPolicy.DATA_LOCALITY

    def __init__(self) -> None:
        self._next_node = 0

    def select(
        self,
        ready: Sequence[Task],
        cluster: ClusterView,
        requires_gpu: GpuPredicate,
    ) -> Assignment | None:
        n = cluster.num_nodes()
        index = getattr(cluster, "locality_index", None)
        resolve = getattr(cluster, "resident_node", None)
        for task in ready:
            best_node: int | None = None
            best_bytes = -1
            needs_gpu = requires_gpu(task)
            ram_bytes = task_ram_bytes(task)
            by_node = index.bytes_map(task.task_id) if index is not None else None
            for offset in range(n):
                # Scanning from the round-robin cursor with a strict ">"
                # makes the first usable node win ties, rotating tied
                # placements across the cluster.
                node = (self._next_node + offset) % n
                if not node_usable(cluster, node, needs_gpu, ram_bytes):
                    continue
                if by_node is not None:
                    local_bytes = by_node.get(node, 0)
                elif resolve is not None:
                    local_bytes = sum(
                        ref.size_bytes
                        for ref in task.inputs
                        if resolve(ref) == node
                    )
                else:
                    local_bytes = sum(
                        ref.size_bytes
                        for ref in task.inputs
                        if ref.home_node == node
                    )
                if local_bytes > best_bytes:
                    best_bytes = local_bytes
                    best_node = node
            if best_node is not None:
                self._next_node = (best_node + 1) % n
                return Assignment(task=task, node=best_node)
        return None


def make_scheduler(policy: SchedulingPolicy) -> Scheduler:
    """Instantiate the scheduler for a policy."""
    if policy is SchedulingPolicy.GENERATION_ORDER:
        return GenerationOrderScheduler()
    if policy is SchedulingPolicy.DATA_LOCALITY:
        return DataLocalityScheduler()
    if policy is SchedulingPolicy.LIFO:
        return LifoScheduler()
    raise ValueError(f"unknown scheduling policy: {policy!r}")
