"""Data references: the tokens tasks exchange.

A :class:`DataRef` stands for one data object (typically one block of a
distributed array).  It records enough metadata for both backends: the
byte size and home node drive the simulated storage model, and the
in-process backend binds each ref to a real NumPy array in its data
store.  Which task produces a ref is recorded once, by the task graph
(:meth:`~repro.runtime.dag.TaskGraph.producer_of`), when it accepts the
task; refs produced by no task are workflow inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

_ref_counter = itertools.count()


def _next_ref_id() -> int:
    return next(_ref_counter)


@dataclass(eq=False, slots=True)
class DataRef:
    """A handle to one data object flowing through the workflow."""

    size_bytes: int
    name: str = ""
    #: Node index whose local disk holds the object (local-disk storage).
    home_node: int = 0
    ref_id: int = field(default_factory=_next_ref_id)

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError("size_bytes must be non-negative")

    def __hash__(self) -> int:
        return hash(self.ref_id)

    def __repr__(self) -> str:
        return (
            f"DataRef(#{self.ref_id} {self.name!r}, {self.size_bytes} B, "
            f"node {self.home_node})"
        )
