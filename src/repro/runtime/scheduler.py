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

import bisect
import enum
from dataclasses import dataclass
from typing import (
    Callable,
    Hashable,
    Iterable,
    Iterator,
    Mapping,
    Protocol,
    Sequence,
)

from repro.runtime.data import DataRef
from repro.runtime.locality import bytes_by_node
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

    A node that left the cluster (a failed node) simply never has a free
    slot.  Two optional attributes feed the data-locality policy:

    * ``resident_node(ref) -> int | None`` — the node a block currently
      resides on (``None`` = lost/off-cluster).  Without it, policies
      fall back to the ref's recorded ``home_node``, which can be stale
      when the block was since evicted or moved.
    * ``locality_index`` — a
      :class:`~repro.runtime.locality.LocalityIndex` over the ready set,
      handing over a task's per-node byte scores in O(1) instead of a
      sum over its inputs.  Index scores must equal the resolver-based
      recomputation; the executor maintains that invariant.

    Policies rely on the view being **monotone in RAM**: asking for more
    RAM never makes a node usable, i.e. ``has_free_slot(node, g, ram)``
    implies ``has_free_slot(node, g, 0)``.  The data-locality policy
    skips every RAM-bearing probe of a node that has no zero-RAM slot,
    and gives up on a cluster where no node has one.  It probes each
    node at most once per distinct requirement per decision, so a view
    costs it O(nodes) probes per requirement, never per ready task.
    """

    def num_nodes(self) -> int:
        """Number of nodes."""

    def has_free_slot(self, node: int, needs_gpu: bool, ram_bytes: int = 0) -> bool:
        """Whether ``node`` can start one more task right now (monotone:
        more ``ram_bytes`` never turns ``False`` into ``True``)."""


def node_usable(
    cluster: ClusterView, node: int, needs_gpu: bool, ram_bytes: int = 0
) -> bool:
    """Whether a policy may place a task on ``node`` right now.

    The one probe every policy calls, so a placement scan's cost is
    countable in one place.
    """
    return cluster.has_free_slot(node, needs_gpu, ram_bytes)


@dataclass(frozen=True)
class Assignment:
    """A scheduling decision: run ``task`` on ``node``."""

    task: Task
    node: int


class Scheduler:
    """Base class: pick the next assignment from the ready queue.

    ``ready`` is ordered by task generation (ascending task id); policies
    may reorder.  The data-locality policy also takes the ready set as a
    :class:`ReadyParts`.  Returns ``None`` when no ready task fits any
    node.
    """

    policy: SchedulingPolicy

    def __init__(self) -> None:
        #: Round-robin cursor: the node the next placement scan starts at.
        self._next_node = 0

    def select(
        self,
        ready: Sequence[Task],
        cluster: ClusterView,
        requires_gpu: GpuPredicate,
    ) -> Assignment | None:
        raise NotImplementedError

    def select_batch(
        self,
        ready: Sequence[Task] | ReadyParts,
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

    def _place_round_robin(
        self, task: Task, cluster: ClusterView, requires_gpu: GpuPredicate
    ) -> Assignment | None:
        """Place ``task`` on the first usable node from the cursor on."""
        needs_gpu = requires_gpu(task)
        ram_bytes = task_ram_bytes(task)
        n = cluster.num_nodes()
        for offset in range(n):
            node = (self._next_node + offset) % n
            if node_usable(cluster, node, needs_gpu, ram_bytes):
                self._next_node = (node + 1) % n
                return Assignment(task=task, node=node)
        return None


class GenerationOrderScheduler(Scheduler):
    """FIFO dispatch with round-robin node choice.

    The round-robin start index spreads consecutive tasks over nodes the
    way PyCOMPSs' ready scheduler spreads work over workers.
    """

    policy = SchedulingPolicy.GENERATION_ORDER

    def select(
        self,
        ready: Sequence[Task],
        cluster: ClusterView,
        requires_gpu: GpuPredicate,
    ) -> Assignment | None:
        if not ready:
            return None
        return self._place_round_robin(ready[0], cluster, requires_gpu)


class LifoScheduler(Scheduler):
    """Dispatch the most recently generated ready task first."""

    policy = SchedulingPolicy.LIFO

    def select(
        self,
        ready: Sequence[Task],
        cluster: ClusterView,
        requires_gpu: GpuPredicate,
    ) -> Assignment | None:
        if not ready:
            return None
        return self._place_round_robin(ready[len(ready) - 1], cluster, requires_gpu)


class DataLocalityScheduler(Scheduler):
    """Place the first ready task that fits on its most data-local node.

    The chosen node is the usable one holding the most of the task's
    input bytes; when the owner is busy the task falls back to the free
    node with the best score, so tasks never starve.  Ties — common when a
    task's inputs live on no candidate node at all — are broken round-
    robin rather than always picking node 0, so locality scheduling
    degrades to generation-order spreading instead of piling tie tasks
    onto the first node.

    The policy never walks the ready queue.  Every task of one part of a
    :class:`ReadyParts` partition has the same requirement
    ``(needs_gpu, ram_bytes)`` at any one instant, so the first ready
    task that fits is the head of its part: :meth:`select` visits the
    part heads in task-id order and places the first whose requirement
    has a usable node.  A plain sequence is first grouped by requirement
    in one pass, and the same rule applies to the group heads.  Nothing
    reserves a slot while :meth:`select` runs, so one call probes the
    nodes once per distinct requirement it meets.  When no node has a
    slot for a zero-RAM task of either kind, the call returns ``None``
    before visiting a head (RAM is monotone, see :class:`ClusterView`).
    On a :class:`ReadyParts` a call therefore costs O(nodes) probes per
    distinct requirement it meets plus O(parts log parts) for the heads,
    however long the ready queue.

    Scoring resolves each input against *current block residency*, not
    the ref's recorded ``home_node``: a block that was lost with a failed
    node (or otherwise evicted/moved since the ref was written) must not
    earn its stale location any locality credit.  Only the placed task is
    scored.  Views that maintain a
    :class:`~repro.runtime.locality.LocalityIndex` over the ready set
    hand over its per-node byte map; views exposing only a
    ``resident_node`` resolver get an O(inputs) sum; bare stubs fall back
    to ``home_node``.
    """

    policy = SchedulingPolicy.DATA_LOCALITY

    def select(
        self,
        ready: Sequence[Task] | ReadyParts,
        cluster: ClusterView,
        requires_gpu: GpuPredicate,
    ) -> Assignment | None:
        if not ready:
            return None
        n = cluster.num_nodes()
        usable = _UsableNodes(
            cluster, [(self._next_node + offset) % n for offset in range(n)]
        )
        if not usable[False, 0] and not usable[True, 0]:
            return None
        if isinstance(ready, ReadyParts):
            heads = ready.heads()
        else:
            heads = _requirement_heads(ready, requires_gpu)
        for task in heads:
            nodes = usable[requires_gpu(task), task_ram_bytes(task)]
            if nodes:
                break
        else:
            return None
        by_node = _input_bytes_by_node(task, cluster)
        # max() keeps the first of equal scores — the first usable node
        # from the round-robin cursor — rotating tied placements across
        # the cluster.
        best_node = max(nodes, key=lambda node: by_node.get(node, 0))
        self._next_node = (best_node + 1) % n
        return Assignment(task=task, node=best_node)


class ReadyParts:
    """A ready set split into parts, the form the data-locality policy reads.

    A part holds, in task-id order, the ready tasks filed under one key.
    The owner keys a task by everything the device decision and the RAM
    requirement read from it, so at any one instant every task of a part
    has the same requirement, and a task's part must not change while
    it is ready.  :meth:`part` numbers each key once; :meth:`add` and
    :meth:`remove` take the number, so filing a task hashes nothing.
    ``task_of`` resolves a task id to its :class:`Task`.
    """

    def __init__(self, task_of: Callable[[int], Task]) -> None:
        self._task_of = task_of
        #: key -> part number.
        self._numbers: dict[Hashable, int] = {}
        #: part number -> ids of the part's ready tasks, ascending.
        self._parts: list[list[int]] = []

    def __len__(self) -> int:
        return sum(map(len, self._parts))

    def part(self, key: Hashable) -> int:
        """The number of the part that holds tasks keyed ``key``."""
        number = self._numbers.get(key)
        if number is None:
            number = self._numbers[key] = len(self._parts)
            self._parts.append([])
        return number

    def add(self, task_id: int, part: int) -> None:
        """File a task entering the ready set in part number ``part``."""
        bisect.insort(self._parts[part], task_id)

    def remove(self, task_id: int, part: int) -> None:
        """Take a ready task out of part number ``part``, where it was filed."""
        members = self._parts[part]
        del members[bisect.bisect_left(members, task_id)]

    def heads(self) -> Iterator[Task]:
        """The first task of every nonempty part, earliest first."""
        heads = [members[0] for members in self._parts if members]
        heads.sort()
        return map(self._task_of, heads)


def _requirement_heads(
    ready: Sequence[Task], requires_gpu: GpuPredicate
) -> Iterable[Task]:
    """The first task of every requirement in ``ready``, in queue order."""
    heads: dict[tuple[bool, int], Task] = {}
    for task in ready:
        heads.setdefault((requires_gpu(task), task_ram_bytes(task)), task)
    return heads.values()


class _UsableNodes(dict):
    """Usable nodes per requirement ``(needs_gpu, ram_bytes)``, in cursor
    order, probed on first lookup.

    Lives for one :meth:`DataLocalityScheduler.select` call, during which
    nothing reserves a slot, so every answer stays valid.
    """

    def __init__(self, cluster: ClusterView, rotation: list[int]) -> None:
        super().__init__()
        self._cluster = cluster
        self._rotation = rotation

    def __missing__(self, key: tuple[bool, int]) -> list[int]:
        needs_gpu, ram_bytes = key
        # A node without a zero-RAM slot has none for more RAM either.
        pool = self[needs_gpu, 0] if ram_bytes else self._rotation
        nodes = self[key] = [
            node
            for node in pool
            if node_usable(self._cluster, node, needs_gpu, ram_bytes)
        ]
        return nodes


def _input_bytes_by_node(task: Task, cluster: ClusterView) -> Mapping[int, int]:
    """Per-node input bytes of ``task``, from the best source the view has."""
    index = getattr(cluster, "locality_index", None)
    by_node = index.bytes_map(task.task_id) if index is not None else None
    if by_node is not None:
        return by_node
    resolve = getattr(cluster, "resident_node", None)
    return bytes_by_node(task, resolve if resolve is not None else _recorded_home)


def _recorded_home(ref: DataRef) -> int:
    return ref.home_node


def make_scheduler(policy: SchedulingPolicy) -> Scheduler:
    """Instantiate the scheduler for a policy."""
    if policy is SchedulingPolicy.GENERATION_ORDER:
        return GenerationOrderScheduler()
    if policy is SchedulingPolicy.DATA_LOCALITY:
        return DataLocalityScheduler()
    if policy is SchedulingPolicy.LIFO:
        return LifoScheduler()
    raise ValueError(f"unknown scheduling policy: {policy!r}")
