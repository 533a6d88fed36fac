"""Task definitions and the ``@task`` decorator.

A :class:`Task` couples the information both backends need: the real
Python function (executed by the in-process backend) and the
:class:`~repro.perfmodel.TaskCost` demands (consumed by the simulated
backend).  Tasks whose user code has a parallel fraction
(``cost.parallel_flops > 0``) are GPU-eligible; serial tasks always run on
CPU cores, following §3.3.

The :func:`task` decorator provides PyCOMPSs-style sugar: calling a
decorated function while a :class:`~repro.runtime.runtime.Runtime` is
active records a task and returns future :class:`DataRef` handles instead
of executing immediately; with no active runtime the function just runs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.perfmodel import TaskCost
from repro.runtime.data import DataRef


@dataclass(eq=False)
class Task:
    """One vertex of the workflow DAG."""

    task_id: int
    name: str
    inputs: tuple[DataRef, ...]
    outputs: tuple[DataRef, ...]
    cost: TaskCost | None = None
    fn: Callable[..., Any] | None = None
    args: tuple[Any, ...] = ()
    kwargs: dict[str, Any] = field(default_factory=dict)
    #: Analyzer codes (``WFnnn``) suppressed for this task — the
    #: task-level counterpart of ``analyze(ignore=...)``.  Set via
    #: ``@task(ignore={...})`` or ``Runtime.submit(ignore={...})`` for
    #: findings that are reviewed and accepted (e.g. a deliberately
    #: tiny kernel tripping WF201).
    ignore: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        self.ignore = frozenset(self.ignore)

    @property
    def gpu_eligible(self) -> bool:
        """Whether the task has a parallel fraction a GPU can accelerate."""
        return self.cost is not None and self.cost.parallel_flops > 0

    @property
    def input_bytes(self) -> int:
        """Total bytes of all input refs."""
        return sum(ref.size_bytes for ref in self.inputs)

    @property
    def output_bytes(self) -> int:
        """Total bytes of all output refs."""
        return sum(ref.size_bytes for ref in self.outputs)

    def __hash__(self) -> int:
        return hash(self.task_id)

    def __repr__(self) -> str:
        return (
            f"Task(#{self.task_id} {self.name}, "
            f"{len(self.inputs)} in / {len(self.outputs)} out)"
        )


def gpu_intended(
    task: Task, use_gpu: bool, gpu_task_types: frozenset[str] | None
) -> bool:
    """Whether a run means ``task`` for a GPU device.

    This is the intent before any overflow or recovery decision; the
    executor places tasks by it and the analyzer's GPU rules check it.
    """
    return use_gpu and task.gpu_eligible and (
        gpu_task_types is None or task.name in gpu_task_types
    )


class TaskFunction:
    """A function registered as a task type via :func:`task`."""

    def __init__(
        self,
        fn: Callable[..., Any],
        returns: int,
        name: str | None = None,
        ignore: Iterable[str] = (),
    ) -> None:
        if returns < 0:
            raise ValueError("returns must be non-negative")
        self.fn = fn
        self.returns = returns
        self.name = name or fn.__name__
        self.ignore = frozenset(ignore)
        functools.update_wrapper(self, fn)

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        from repro.runtime.runtime import current_runtime

        runtime = current_runtime()
        if runtime is None:
            return self.fn(*args, **kwargs)
        cost: TaskCost | None = kwargs.pop("_cost", None)
        output_bytes: Sequence[int] | None = kwargs.pop("_output_bytes", None)
        refs = runtime.submit(
            name=self.name,
            fn=self.fn,
            inputs=[a for a in args if isinstance(a, DataRef)],
            args=args,
            kwargs=kwargs,
            cost=cost,
            n_outputs=self.returns,
            output_bytes=output_bytes,
            ignore=self.ignore,
        )
        if self.returns == 0:
            return None
        if self.returns == 1:
            return refs[0]
        return tuple(refs)


def task(
    returns: int = 1,
    name: str | None = None,
    ignore: Iterable[str] = (),
) -> Callable[[Callable[..., Any]], TaskFunction]:
    """Register a function as a task type (PyCOMPSs-style decorator).

    Parameters
    ----------
    returns:
        How many data objects the task produces.
    name:
        Task-type name used in traces; defaults to the function name.
    ignore:
        Analyzer codes (``WFnnn``) suppressed for tasks of this type —
        reviewed-and-accepted findings that ``repro lint`` should stop
        reporting (see ``docs/linting.md``).

    When invoked under an active runtime, pass ``_cost=`` (a
    :class:`TaskCost`) and optionally ``_output_bytes=`` (sizes of each
    produced object; defaults to ``cost.output_bytes`` split evenly).
    """

    def decorate(fn: Callable[..., Any]) -> TaskFunction:
        return TaskFunction(fn, returns=returns, name=name, ignore=ignore)

    return decorate
