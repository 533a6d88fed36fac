"""Real in-process execution of a workflow.

Tasks run their actual Python functions on real (NumPy) data in
submission order, which :meth:`~repro.runtime.dag.TaskGraph.add_task`
makes a topological order, resolving :class:`DataRef` arguments through
a data store.  This backend exists for correctness: the algorithm tests
compare blocked Matmul against ``numpy.matmul`` and distributed K-means
against a single-machine reference implementation through it.

Wall-clock timings are recorded for completeness but carry no performance
meaning at laptop scale — the simulated backend is the instrument for the
paper's experiments.
"""

from __future__ import annotations

import time
from typing import Any

from repro.runtime.dag import TaskGraph
from repro.runtime.data import DataRef
from repro.tracing import Stage, StageRecord, TaskRecord, Trace


class MissingDataError(KeyError):
    """Raised when a task consumes a ref nothing produced or registered."""


class InProcessExecutor:
    """Executes a workflow's real task functions sequentially."""

    def execute(self, graph: TaskGraph, data: dict[int, Any]) -> Trace:
        """Run all tasks; ``data`` maps ref ids to values and is updated
        in place with every produced output."""
        trace = Trace()
        levels = graph.levels()
        for task in graph.tasks():
            if task.fn is None:
                raise ValueError(
                    f"task {task.name} has no function; the in-process "
                    "backend requires real task functions"
                )
            args = tuple(self._resolve(a, data, task.name) for a in task.args)
            kwargs = {
                key: self._resolve(value, data, task.name)
                for key, value in task.kwargs.items()
            }
            started = time.perf_counter()
            result = task.fn(*args, **kwargs)
            ended = time.perf_counter()
            self._bind_outputs(task.outputs, result, data, task.name)
            level = levels[task.task_id]
            trace.add_stage(
                StageRecord(
                    task_id=task.task_id,
                    task_type=task.name,
                    stage=Stage.SERIAL_FRACTION,
                    start=started,
                    end=ended,
                    node=0,
                    core=0,
                    level=level,
                    used_gpu=False,
                )
            )
            trace.add_task(
                TaskRecord(
                    task_id=task.task_id,
                    task_type=task.name,
                    start=started,
                    end=ended,
                    node=0,
                    core=0,
                    level=level,
                    used_gpu=False,
                )
            )
        return trace

    @staticmethod
    def _resolve(value: Any, data: dict[int, Any], task_name: str) -> Any:
        if isinstance(value, DataRef):
            if value.ref_id not in data:
                raise MissingDataError(
                    f"task {task_name} consumes unresolved ref {value!r}"
                )
            return data[value.ref_id]
        return value

    @staticmethod
    def _bind_outputs(
        outputs: tuple[DataRef, ...],
        result: Any,
        data: dict[int, Any],
        task_name: str,
    ) -> None:
        if not outputs:
            return
        if len(outputs) == 1:
            data[outputs[0].ref_id] = result
            return
        if not isinstance(result, tuple) or len(result) != len(outputs):
            raise ValueError(
                f"task {task_name} declared {len(outputs)} outputs but "
                f"returned {type(result).__name__}"
            )
        for ref, value in zip(outputs, result):
            data[ref.ref_id] = value
