"""Execution tracing and metric aggregation.

The paper instruments every task-processing stage (Python performance
counters, CUDA events, and Paraver traces — §4.4.3) and aggregates them
into the metrics of §4.2.  This package plays the same role for both
execution backends: the runtime emits :class:`StageRecord` entries into a
:class:`Trace`, and :mod:`repro.tracing.aggregate` computes the per-task-
type, per-core, and per-DAG-level metrics the figures are built from.
"""

from repro.tracing.aggregate import (
    DataMovementMetrics,
    FaultMetrics,
    ParallelTaskMetrics,
    UserCodeMetrics,
    data_movement_metrics,
    fault_metrics,
    parallel_task_metrics,
    user_code_metrics,
)
from repro.tracing.decompose import OverheadBreakdown, decompose_overheads
from repro.tracing.export import dump_trace, gantt, load_trace
from repro.tracing.golden import (
    trace_canonical_lines,
    trace_digest,
    trace_fingerprint,
)
from repro.tracing.trace import (
    ATTEMPT_OK,
    Stage,
    StageRecord,
    TaskAttempt,
    TaskRecord,
    Trace,
)

__all__ = [
    "ATTEMPT_OK",
    "DataMovementMetrics",
    "FaultMetrics",
    "OverheadBreakdown",
    "ParallelTaskMetrics",
    "Stage",
    "decompose_overheads",
    "dump_trace",
    "fault_metrics",
    "gantt",
    "load_trace",
    "StageRecord",
    "TaskAttempt",
    "TaskRecord",
    "Trace",
    "UserCodeMetrics",
    "data_movement_metrics",
    "parallel_task_metrics",
    "trace_canonical_lines",
    "trace_digest",
    "trace_fingerprint",
    "user_code_metrics",
]
