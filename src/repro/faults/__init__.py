"""Fault injection and recovery for the simulated runtime.

A :class:`FaultPlan` describes deterministic, seed-driven failures — task
crashes at Figure-4 stages, node loss at a simulated timestamp, runtime
GPU OOM, stragglers — and a :class:`RetryPolicy` governs recovery: retry
with exponential backoff and jitter, and GPU-to-CPU fallback.  A failed
node leaves the cluster for the rest of the run.
:mod:`repro.faults.recovery` extends the retry path with lineage-based
recovery — recompute blocks lost with a dead node
(``RetryPolicy(recover_lost_blocks=True)``) and bound the recomputation
depth with a :class:`CheckpointPolicy`.  Wire everything into
:class:`~repro.runtime.RuntimeConfig` (``fault_plan=``,
``retry_policy=``, ``checkpoint_policy=``) and read the outcome off
:class:`~repro.runtime.WorkflowResult` (``failed``, ``attempts``,
``recovered_makespan``, ``recovery_metrics``) and the trace's
:class:`~repro.tracing.TaskAttempt` records.  See ``docs/faults.md``.
"""

from repro.faults.plan import (
    FaultError,
    FaultPlan,
    GpuOomFault,
    InjectedGpuOomError,
    NodeFault,
    NodeFailureError,
    Straggler,
    TaskCrash,
    TaskCrashError,
)
from repro.faults.policy import RetryPolicy
from repro.faults.recovery import CheckpointPolicy, RecoveryMetrics

__all__ = [
    "CheckpointPolicy",
    "FaultError",
    "FaultPlan",
    "GpuOomFault",
    "InjectedGpuOomError",
    "NodeFault",
    "NodeFailureError",
    "RecoveryMetrics",
    "RetryPolicy",
    "Straggler",
    "TaskCrash",
    "TaskCrashError",
]
