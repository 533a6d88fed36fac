"""Workflow DAG construction and shape analysis (§3.1).

Vertices are tasks; edges are data dependencies, detected automatically
from producer/consumer :class:`DataRef` relationships.  The DAG's shape
reveals the workflow's parallelism profile: its *width* (the largest
number of tasks on one level) is the degree of task parallelism and its
*height* (number of levels on the longest path) is the degree of task
dependency — compare the wide-shallow Matmul DAG to the narrow-deep
K-means DAG in the paper's Figure 6.
"""

from __future__ import annotations

from collections import Counter
from types import MappingProxyType
from typing import Mapping

from repro.runtime.task import Task


class DuplicateProducerError(ValueError):
    """Raised when a second task claims to produce an already-produced ref.

    Silently overwriting the producer map would corrupt dependency
    detection: consumers added later would depend on the *last* producer
    only, losing the edge to the first.
    """

    def __init__(self, ref_id: int, first_producer: int, second_producer: int) -> None:
        self.ref_id = ref_id
        self.first_producer = first_producer
        self.second_producer = second_producer
        super().__init__(
            f"ref #{ref_id} already produced by task {first_producer}; "
            f"task {second_producer} cannot produce it again"
        )


def _dot_escape(text: str) -> str:
    """Escape a string for use inside a double-quoted DOT attribute."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


class TaskGraph:
    """A directed acyclic graph of tasks keyed by data dependencies.

    :meth:`add_task` is the one place that decides whether a graph is
    well formed: every ref has at most one producer, no task consumes
    its own output, and a task depends only on tasks added before it.
    Insertion order is therefore a topological order and no cycle can
    form, so nothing downstream re-checks the graph.
    """

    def __init__(self) -> None:
        self._tasks: dict[int, Task] = {}
        self._successors: dict[int, list[int]] = {}
        self._predecessors: dict[int, tuple[int, ...]] = {}
        self._producer_of_ref: dict[int, int] = {}
        self._levels: Mapping[int, int] | None = None

    # ------------------------------------------------------------ building
    def add_task(self, task: Task) -> None:
        """Insert a task; dependency edges follow from its input refs.

        A task consuming several refs of the same producer yields one
        dependency edge (not one per ref).  An input ref with no producer
        yet is a workflow input.  Claiming an output ref that already has
        a producer raises :class:`DuplicateProducerError`, and consuming
        one of the task's own outputs raises ``ValueError``; a refused
        task leaves the graph unchanged.
        """
        if task.task_id in self._tasks:
            raise ValueError(f"duplicate task id {task.task_id}")
        for ref in task.outputs:
            existing = self._producer_of_ref.get(ref.ref_id)
            if existing is not None:
                raise DuplicateProducerError(ref.ref_id, existing, task.task_id)
            # A plain loop: tasks have one or two outputs, and building a
            # set of ids per task costs more than the scan.
            for consumed in task.inputs:
                if consumed.ref_id == ref.ref_id:
                    raise ValueError(
                        f"task {task.task_id} ({task.name}) consumes its own "
                        "output and could never become ready"
                    )
        self._tasks[task.task_id] = task
        self._successors[task.task_id] = []
        predecessors: list[int] = []
        linked: set[int] = set()
        for ref in task.inputs:
            producer = self._producer_of_ref.get(ref.ref_id)
            if producer is not None and producer not in linked:
                linked.add(producer)
                self._successors[producer].append(task.task_id)
                predecessors.append(producer)
        # A tuple holds no spare capacity, unlike the list it is built from.
        self._predecessors[task.task_id] = tuple(predecessors)
        for ref in task.outputs:
            self._producer_of_ref[ref.ref_id] = task.task_id
        self._levels = None

    # ----------------------------------------------------------- accessors
    @property
    def num_tasks(self) -> int:
        """Number of vertices."""
        return len(self._tasks)

    @property
    def num_edges(self) -> int:
        """Number of dependency edges."""
        return sum(len(s) for s in self._successors.values())

    def tasks(self) -> list[Task]:
        """All tasks in insertion (generation) order, a topological order."""
        return list(self._tasks.values())

    def task(self, task_id: int) -> Task:
        """Look up a task by id."""
        return self._tasks[task_id]

    def successors(self, task_id: int) -> list[Task]:
        """Tasks depending on the given task."""
        return [self._tasks[t] for t in self._successors[task_id]]

    def predecessors(self, task_id: int) -> list[Task]:
        """Tasks the given task depends on."""
        return [self._tasks[t] for t in self._predecessors[task_id]]

    def successor_ids(self, task_id: int) -> list[int]:
        """Ids of tasks depending on the given task.

        Returns the graph's own adjacency list (not a copy) so per-task
        hot loops — the executor visits every edge once per commit — pay
        no materialisation cost.  Callers must not mutate it.
        """
        return self._successors[task_id]

    def predecessor_ids(self, task_id: int) -> tuple[int, ...]:
        """Ids of the tasks the given task depends on, in input order
        (the tuple :meth:`add_task` built)."""
        return self._predecessors[task_id]

    def roots(self) -> list[Task]:
        """Tasks with no dependencies (immediately schedulable)."""
        return [t for t in self._tasks.values() if not self._predecessors[t.task_id]]

    def producer_of(self, ref_id: int) -> int | None:
        """Task id that produces a ref, or ``None`` for workflow inputs."""
        return self._producer_of_ref.get(ref_id)

    def edges(self) -> list[tuple[int, int]]:
        """All dependency edges as (producer task id, consumer task id)."""
        return [
            (task_id, successor)
            for task_id, successors in self._successors.items()
            for successor in successors
        ]

    # ------------------------------------------------------------- shape
    def levels(self) -> Mapping[int, int]:
        """Longest-path level of every task (roots are level 0).

        One pass over insertion order, which :meth:`add_task` makes a
        topological order, so the mapping is keyed in that order.  It is
        a read-only view of the graph's cache, computed once per graph
        state: repeated calls copy nothing.
        """
        if self._levels is None:
            levels: dict[int, int] = {}
            for task_id, preds in self._predecessors.items():
                levels[task_id] = max(levels[p] for p in preds) + 1 if preds else 0
            self._levels = MappingProxyType(levels)
        return self._levels

    @property
    def width(self) -> int:
        """Maximum tasks on one level: the degree of task parallelism."""
        return max(Counter(self.levels().values()).values(), default=0)

    @property
    def height(self) -> int:
        """Number of levels on the longest path: the degree of dependency."""
        levels = self.levels()
        return max(levels.values()) + 1 if levels else 0

    def describe(self) -> str:
        """One-line shape summary (used by the Figure 6 experiment)."""
        return (
            f"{self.num_tasks} tasks, {self.num_edges} edges, "
            f"width {self.width}, height {self.height}"
        )

    def to_dot(self, name: str = "workflow", max_tasks: int = 1000) -> str:
        """Graphviz DOT text of the DAG (the paper's Figure 6 style).

        Vertices are tasks labelled by type and coloured per type; edges
        are data dependencies.  Raises for graphs beyond ``max_tasks`` —
        DOT renderings of huge DAGs are unreadable anyway.
        """
        if self.num_tasks > max_tasks:
            raise ValueError(
                f"graph has {self.num_tasks} tasks; raise max_tasks to "
                "export anyway"
            )
        palette = (
            "lightblue", "white", "lightyellow", "lightpink", "lightgreen",
            "lightgrey", "orange",
        )
        colour_of: dict[str, str] = {}
        lines = [f"digraph {name} {{", "  rankdir=TB;", "  node [style=filled];"]
        for task in self._tasks.values():
            colour = colour_of.setdefault(
                task.name, palette[len(colour_of) % len(palette)]
            )
            label = _dot_escape(task.name)
            lines.append(
                f'  t{task.task_id} [label="{label}\\n#{task.task_id}" '
                f'fillcolor={colour}];'
            )
        for task_id, successors in self._successors.items():
            for successor in successors:
                lines.append(f"  t{task_id} -> t{successor};")
        lines.append("}")
        return "\n".join(lines)
