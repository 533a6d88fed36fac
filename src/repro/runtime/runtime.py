"""The runtime facade: submit tasks, build the DAG, execute, collect traces.

Mirrors the user-visible surface of PyCOMPSs: applications register input
data, call task functions (directly via :meth:`Runtime.submit` or through
the :func:`~repro.runtime.task.task` decorator while the runtime is active
as a context manager), and finally :meth:`Runtime.run` the workflow on the
configured backend.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.faults import CheckpointPolicy, FaultPlan, RecoveryMetrics, RetryPolicy
from repro.hardware import ClusterSpec, StorageKind, minotauro
from repro.perfmodel import TaskCost
from repro.runtime.backends.inprocess import InProcessExecutor
from repro.runtime.backends.simulated import SimulatedExecutor
from repro.runtime.dag import TaskGraph
from repro.runtime.data import DataRef
from repro.runtime.scheduler import SchedulingPolicy
from repro.runtime.task import Task
from repro.tracing import Trace

_active_runtimes: list["Runtime"] = []


def current_runtime() -> "Runtime | None":
    """The innermost active runtime, if any (used by the task decorator)."""
    return _active_runtimes[-1] if _active_runtimes else None


class Backend(str, enum.Enum):
    """Which executor runs the workflow."""

    SIMULATED = "simulated"
    IN_PROCESS = "in_process"


@dataclass(frozen=True)
class RuntimeConfig:
    """Everything that defines an execution environment (Table 1 factors
    of the *resources* and *system* dimensions).

    Out-of-range values raise ``ValueError`` when the config is built,
    not when a run starts.
    """

    cluster: ClusterSpec = field(default_factory=minotauro)
    storage: StorageKind = StorageKind.SHARED
    scheduling: SchedulingPolicy = SchedulingPolicy.GENERATION_ORDER
    #: Run GPU-eligible tasks on GPU devices (processor-type factor).
    use_gpu: bool = False
    backend: Backend = Backend.SIMULATED
    #: Staged-pipeline mitigation: overlap host-to-device transfer with
    #: kernel execution (§1's "staged pipeline" technique).  Off by
    #: default, matching the paper's measured configuration.
    comm_overlap: bool = False
    #: CPU cores per CPU-based task.  The paper's runtime pins one task
    #: per core (§3.3); values > 1 model OpenMP-style multi-threaded tasks
    #: for the over-subscription micro-benchmark.
    cpu_threads_per_task: int = 1
    #: Hybrid heterogeneous execution: when set (and ``use_gpu`` is on),
    #: only these task types run on GPU devices; everything else stays on
    #: CPU cores.  ``WorkflowAdvisor.plan_hybrid`` derives a good set
    #: analytically.
    gpu_task_types: frozenset[str] | None = None
    #: Run-to-run variability: compute-stage durations are multiplied by
    #: log-normal noise with this sigma (0 = fully deterministic).  Lets
    #: experiments follow the paper's protocol of repeated runs (§5).
    jitter_sigma: float = 0.0
    #: Seed for the jitter stream; vary per repetition.
    jitter_seed: int = 0
    #: Extra seconds added to the first task on each core/worker — module
    #: loading and GPU kernel compilation, the warm-up effects the paper
    #: discards its first run over (§5).
    warmup_overhead: float = 0.0
    #: Heterogeneous execution: let GPU-eligible tasks overflow to free
    #: CPU cores when queueing for a device is expected to be slower (a
    #: mitigation technique from the paper's §2 survey).
    gpu_overflow_to_cpu: bool = False
    #: Injected failures for resilience experiments (simulated backend
    #: only): task crashes, node failures, runtime GPU OOM, stragglers.
    #: ``None`` runs fault-free and keeps the trace bit-identical to
    #: earlier releases.
    fault_plan: FaultPlan | None = None
    #: Recovery rules applied when a fault plan injects failures: retry
    #: budget, exponential backoff, GPU-to-CPU fallback and lineage-based
    #: recomputation of lost blocks.  ``None`` uses
    #: :class:`~repro.faults.RetryPolicy`'s defaults.
    retry_policy: RetryPolicy | None = None
    #: Barrier checkpointing of task outputs to shared storage (simulated
    #: backend only): bounds how deep lineage recomputation must walk at
    #: the price of modeled GPFS write time.  ``None`` = no checkpoints.
    checkpoint_policy: CheckpointPolicy | None = None

    def __post_init__(self) -> None:
        if self.cpu_threads_per_task < 1:
            raise ValueError("cpu_threads_per_task must be >= 1")
        if self.cpu_threads_per_task > self.cluster.node.cpu.cores_per_node:
            raise ValueError(
                "cpu_threads_per_task cannot exceed the cores of one node"
            )
        if self.jitter_sigma < 0:
            raise ValueError("jitter_sigma must be non-negative")
        if self.warmup_overhead < 0:
            raise ValueError("warmup_overhead must be non-negative")
        if self.backend is Backend.IN_PROCESS:
            for name, value in (
                ("fault_plan", self.fault_plan),
                ("retry_policy", self.retry_policy),
                ("checkpoint_policy", self.checkpoint_policy),
            ):
                if value is not None:
                    raise ValueError(
                        f"{name} requires the simulated backend; the "
                        "in-process backend injects no faults"
                    )
        if self.fault_plan is not None:
            for fault in self.fault_plan.node_faults:
                if fault.node >= self.cluster.num_nodes:
                    raise ValueError(
                        f"fault plan kills node {fault.node} but the cluster "
                        f"has {self.cluster.num_nodes} nodes"
                    )


@dataclass
class WorkflowResult:
    """Outcome of one workflow execution."""

    trace: Trace
    graph: TaskGraph
    config: RuntimeConfig
    #: Ref-id -> value bindings (in-process backend only).
    data: dict[int, Any] = field(default_factory=dict)
    #: Whether any task failed permanently (retries exhausted or
    #: dependencies lost); only a fault plan can make this True.  With
    #: ``RetryPolicy(recover_lost_blocks=True)`` a lost block alone never
    #: fails the workflow as long as a live replica, a checkpoint, or a
    #: recomputable lineage exists.
    failed: bool = False
    #: Ids of the permanently failed tasks, deterministically sorted
    #: ascending.  Includes every transitive descendant of a task whose
    #: retries were exhausted — and, with recovery enabled, descendants
    #: whose lineage proved unrecoverable (a lost input whose producer
    #: itself failed permanently).
    failed_task_ids: tuple[int, ...] = ()
    #: What lineage recovery and checkpointing cost this run; all-zero
    #: for a fault-free execution or when the recovery features are
    #: disabled.
    recovery_metrics: RecoveryMetrics = field(default_factory=RecoveryMetrics)
    #: The sanitizer's report when the run was sanitized (``None``
    #: otherwise).  Present only on clean runs — a dirty trace raises
    #: :class:`~repro.analysis.TraceSanitizerError` instead.
    sanitizer: Any = None

    @property
    def makespan(self) -> float:
        """Wall time of the whole workflow."""
        return self.trace.makespan

    @property
    def attempts(self) -> dict[int, int]:
        """Attempts per task id (1 for every task in a fault-free run)."""
        return self.trace.attempt_counts()

    @property
    def recovered_makespan(self) -> float:
        """Wall time including failed attempts and retry backoff.

        Equals :attr:`makespan` in a fault-free run; with faults it spans
        wasted attempts and master-side backoff waits as well, so the
        difference is the cost of recovery.
        """
        return self.trace.recovered_span

    def value_of(self, ref: DataRef) -> Any:
        """The real value bound to a ref (in-process backend only)."""
        if ref.ref_id not in self.data:
            raise KeyError(f"no value bound for {ref!r}")
        return self.data[ref.ref_id]


class Runtime:
    """Task submission front-end bound to one configuration.

    Use as a context manager so decorated task functions route through it::

        rt = Runtime(RuntimeConfig(use_gpu=True))
        with rt:
            c = matmul_func(a, b, _cost=cost)   # records a task
        result = rt.run()
    """

    def __init__(self, config: RuntimeConfig | None = None) -> None:
        self.config = config or RuntimeConfig()
        self.graph = TaskGraph()
        self._task_ids = itertools.count()
        self._data: dict[int, Any] = {}
        self._input_node_rr = itertools.count()

    # --------------------------------------------------------- context mgmt
    def __enter__(self) -> "Runtime":
        _active_runtimes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _active_runtimes.pop()
        if popped is not self:  # pragma: no cover - defensive
            raise RuntimeError("runtime context stack corrupted")

    # ------------------------------------------------------------- data API
    def register_input(
        self,
        size_bytes: int,
        name: str = "",
        home_node: int | None = None,
        value: Any = None,
    ) -> DataRef:
        """Register a workflow input block.

        ``home_node`` defaults to round-robin placement over the cluster
        nodes, the way a distributed array's blocks are spread.  ``value``
        binds a real array for the in-process backend.
        """
        if home_node is None:
            home_node = next(self._input_node_rr) % self.config.cluster.num_nodes
        ref = DataRef(size_bytes=size_bytes, name=name, home_node=home_node)
        if value is not None:
            self._data[ref.ref_id] = value
        return ref

    # ------------------------------------------------------------- task API
    def submit(
        self,
        name: str,
        inputs: Sequence[DataRef],
        cost: TaskCost | None = None,
        fn: Any = None,
        args: Sequence[Any] = (),
        kwargs: dict[str, Any] | None = None,
        n_outputs: int = 1,
        output_bytes: Sequence[int] | None = None,
        ignore: Sequence[str] = (),
    ) -> list[DataRef]:
        """Record one task; returns refs for its future outputs.

        ``output_bytes`` gives the size of each produced object; when
        omitted it defaults to an even split of ``cost.output_bytes``.
        ``ignore`` suppresses the given analyzer codes (``WFnnn``) for
        this task — reviewed-and-accepted findings that lint should stop
        reporting.
        """
        if output_bytes is None:
            total = cost.output_bytes if cost is not None else 0
            output_bytes = [total // n_outputs] * n_outputs if n_outputs else []
        if len(output_bytes) != n_outputs:
            raise ValueError(
                f"task {name}: {n_outputs} outputs but "
                f"{len(output_bytes)} output sizes"
            )
        task_id = next(self._task_ids)
        outputs = tuple(
            DataRef(size_bytes=size, name=f"{name}#{task_id}.out{i}")
            for i, size in enumerate(output_bytes)
        )
        if not args:
            args = tuple(inputs)
        record = Task(
            task_id=task_id,
            name=name,
            inputs=tuple(inputs),
            outputs=outputs,
            cost=cost,
            fn=fn,
            args=tuple(args),
            kwargs=dict(kwargs or {}),
            ignore=frozenset(ignore),
        )
        self.graph.add_task(record)
        return list(outputs)

    # ------------------------------------------------------------ execution
    def run(self, sanitize: bool = False) -> WorkflowResult:
        """Execute the recorded workflow on the configured backend.

        Before its first event the simulated backend refuses a run it
        could not complete: a host or device working set that cannot
        fit raises the matching out-of-memory error, and GPU work on a
        cluster without devices raises ``ValueError``.

        With ``sanitize=True`` (simulated backend only) the produced
        trace is replayed through the dynamic sanitizer afterwards, and
        any broken invariant (happens-before, resource conservation,
        attempt-machine legality, ...) raises
        :class:`~repro.analysis.TraceSanitizerError`.  Clean runs carry
        the report in ``result.sanitizer``; the sanitizer only reads the
        trace, so a sanitized run's trace is bit-identical.
        """
        if sanitize and self.config.backend is not Backend.SIMULATED:
            raise ValueError(
                "sanitize=True requires the simulated backend: only its "
                "trace records carry node/core placements to check"
            )
        if self.config.backend is Backend.IN_PROCESS:
            trace = InProcessExecutor().execute(self.graph, self._data)
            return WorkflowResult(
                trace=trace, graph=self.graph, config=self.config, data=self._data
            )
        executor = SimulatedExecutor(self.config)
        trace = executor.execute(self.graph)
        result = WorkflowResult(
            trace=trace,
            graph=self.graph,
            config=self.config,
            failed=bool(executor.failed_task_ids),
            failed_task_ids=executor.failed_task_ids,
            recovery_metrics=executor.recovery_metrics,
        )
        if sanitize:
            from repro.analysis import TraceSanitizerError, sanitize_result

            report = sanitize_result(result)
            if not report.ok:
                raise TraceSanitizerError(report)
            result.sanitizer = report
        return result
