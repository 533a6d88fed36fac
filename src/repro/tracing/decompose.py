"""Overhead decomposition of an execution trace.

The paper's core narrative is that distributed execution time is shared
between computation and overheads — (de-)serialization, CPU-GPU
communication, scheduling, and idling on stalled resources.  This module
turns a trace into that decomposition: total busy time per stage across
all cores, plus the idle share of the core-seconds the workflow occupied.

Shares are fractions of the occupied core-seconds
(``makespan x cores_used``), so they sum to 1 with idle included.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.tracing.trace import Stage, Trace


@dataclass(frozen=True)
class OverheadBreakdown:
    """Busy-time shares of one execution."""

    makespan: float
    cores_used: int
    compute_share: float
    movement_share: float
    comm_share: float
    scheduling_share: float
    idle_share: float

    @property
    def overhead_share(self) -> float:
        """Everything that is not user-code compute or idle."""
        return self.movement_share + self.comm_share + self.scheduling_share

    def render(self) -> str:
        """One-line textual summary."""
        return (
            f"compute {self.compute_share:.0%}, data movement "
            f"{self.movement_share:.0%}, CPU-GPU comm {self.comm_share:.0%}, "
            f"scheduling {self.scheduling_share:.0%}, idle {self.idle_share:.0%} "
            f"(makespan {self.makespan:.2f}s over {self.cores_used} cores)"
        )


#: Stage groups are tuples, not sets: the share computations sum floats
#: over them, and a fixed iteration order keeps those sums (and hence
#: reported breakdowns) bit-reproducible across processes.
_COMPUTE_STAGES = (Stage.SERIAL_FRACTION, Stage.PARALLEL_FRACTION)
#: Checkpoint writes are storage I/O the policy added on top of the
#: workflow's own serialization, so they count as data movement.
_MOVEMENT_STAGES = (
    Stage.DESERIALIZATION,
    Stage.SERIALIZATION,
    Stage.CHECKPOINT_WRITE,
)
#: Fault-path records (zero-duration failure / recompute markers and
#: master-side retry backoff) do not occupy a core and are excluded from
#: the busy time and the core census.
_OFF_CORE_STAGES = (Stage.FAILURE, Stage.RETRY_WAIT, Stage.RECOMPUTE)


def decompose_overheads(trace: Trace) -> OverheadBreakdown:
    """Decompose a trace into compute / movement / comm / scheduling / idle.

    The denominator is the core-seconds the workflow occupied: makespan
    times the number of distinct (node, core) slots that executed at least
    one stage.  GPU kernel time counts as compute (it occupies the slot's
    task just the same).
    """
    if not trace.stages:
        return OverheadBreakdown(
            makespan=0.0,
            cores_used=0,
            compute_share=0.0,
            movement_share=0.0,
            comm_share=0.0,
            scheduling_share=0.0,
            idle_share=0.0,
        )
    makespan = trace.makespan
    on_core = [r for r in trace.stages if r.stage not in _OFF_CORE_STAGES]
    cores = {(r.node, r.core) for r in on_core}
    budget = makespan * len(cores)
    sums = {stage: 0.0 for stage in Stage}
    for record in on_core:
        sums[record.stage] += record.duration
    compute = sum(sums[s] for s in _COMPUTE_STAGES)
    movement = sum(sums[s] for s in _MOVEMENT_STAGES)
    comm = sums[Stage.CPU_GPU_COMM]
    scheduling = sums[Stage.SCHEDULING]
    if budget <= 0:
        budget = max(compute + movement + comm + scheduling, 1e-12)
    busy = compute + movement + comm + scheduling
    return OverheadBreakdown(
        makespan=makespan,
        cores_used=len(cores),
        compute_share=compute / budget,
        movement_share=movement / budget,
        comm_share=comm / budget,
        scheduling_share=scheduling / budget,
        idle_share=max(0.0, 1.0 - busy / budget),
    )
