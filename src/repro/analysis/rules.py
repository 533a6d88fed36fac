"""The analyzer's rule set, one function per ``WFnnn`` diagnostic code.

Each rule inspects a :class:`RuleContext` — the task graph, the
:class:`~repro.runtime.RuntimeConfig` the executor would run it under,
and the :class:`~repro.perfmodel.CostModel` that maps
:class:`~repro.perfmodel.TaskCost` demands to stage durations — and
returns zero or more :class:`~repro.analysis.diagnostics.Diagnostic`
findings.  Rules never execute tasks: everything here is a function of
the DAG, the declared demands, and the configuration, which is what
makes the paper's headline failures (Figure 9a's "CPU GPU OOM", O1's
launch-overhead regime, O4's transfer-bound placements) predictable
before dispatch.

Findings are aggregated per task type so a 768-task sweep produces one
record per defect, not 768.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.diagnostics import Diagnostic
from repro.faults import RetryPolicy
from repro.perfmodel.costmodel import CostModel
from repro.runtime.dag import TaskGraph
from repro.runtime.runtime import Backend, RuntimeConfig
from repro.runtime.task import Task, gpu_intended

GIB = 1024**3

#: WF201 fires when launch overhead is at least this share of the GPU
#: parallel-fraction time (0.5 = overhead equals useful kernel work).
LAUNCH_OVERHEAD_SHARE = 0.5
#: WF203 fires when the DAG width is below this share of the cluster's
#: parallel slots.
WIDTH_SLOT_SHARE = 0.25


@dataclass(frozen=True)
class RuleContext:
    """Everything a rule may inspect."""

    graph: TaskGraph
    #: The configuration ``Runtime.run()`` would execute the graph under.
    config: RuntimeConfig
    cost_model: CostModel
    #: Ref ids the application keeps as workflow results, or ``None``
    #: when unknown (the dead-task rule then only flags interior tasks).
    returned_ref_ids: frozenset[int] | None = None

    @property
    def retry_policy(self) -> RetryPolicy:
        """The run's recovery rules; the executor's default when unset."""
        return self.config.retry_policy or RetryPolicy()


# --------------------------------------------------------------- helpers
def _gib(num_bytes: float) -> str:
    return f"{num_bytes / GIB:.1f} GiB"


def _grouped(tasks: list[Task]) -> dict[str, list[Task]]:
    groups: dict[str, list[Task]] = {}
    for task in tasks:
        groups.setdefault(task.name, []).append(task)
    return groups


def _ids(tasks: list[Task]) -> tuple[int, ...]:
    return tuple(t.task_id for t in tasks)


# --------------------------------------------------- WF0xx: graph hazards
def check_dead_tasks(ctx: RuleContext) -> list[Diagnostic]:
    """WF005 — every task's outputs should be consumed or returned."""
    graph = ctx.graph
    levels = graph.levels()
    if not levels:
        return []
    max_level = max(levels.values())
    consumed = {
        ref.ref_id for task in graph.tasks() for ref in task.inputs
    }
    returned = ctx.returned_ref_ids
    dead: list[Task] = []
    for task in graph.tasks():
        if not task.outputs:
            continue  # side-effect sink tasks have nothing to consume
        if any(ref.ref_id in consumed for ref in task.outputs):
            continue
        if returned is not None:
            if any(ref.ref_id in returned for ref in task.outputs):
                continue
        elif levels[task.task_id] == max_level:
            # Without knowing which refs the application keeps, final-level
            # tasks are presumed to carry the workflow's results.
            continue
        dead.append(task)
    findings = []
    for name, tasks in _grouped(dead).items():
        findings.append(
            Diagnostic(
                code="WF005",
                message=f"{len(tasks)} {name!r} task(s) produce outputs that "
                "no task consumes and the workflow never returns; their work "
                "is wasted",
                task_ids=_ids(tasks),
                task_type=name,
                hint="drop the tasks, or consume/return their outputs",
            )
        )
    return findings


def check_missing_costs(ctx: RuleContext) -> list[Diagnostic]:
    """WF006 — the simulated backend needs a TaskCost per task."""
    if ctx.config.backend is not Backend.SIMULATED:
        return []  # real-execution backends run the actual function
    missing = [t for t in ctx.graph.tasks() if t.cost is None]
    findings = []
    for name, tasks in _grouped(missing).items():
        findings.append(
            Diagnostic(
                code="WF006",
                message=f"{len(tasks)} {name!r} task(s) have no TaskCost; the "
                "simulated backend will run them with zero-duration stages, "
                "skewing every timing metric",
                task_ids=_ids(tasks),
                task_type=name,
                hint="pass _cost= (task decorator) or cost= (Runtime.submit)",
            )
        )
    return findings


def check_unreachable_tasks(ctx: RuleContext) -> list[Diagnostic]:
    """WF007 — a task disconnected from the rest of the DAG.

    Fires for tasks with zero in-degree *and* zero out-degree in a
    workflow that otherwise has dependency structure: such a task is
    usually a build() leftover (an operand registered but never wired
    in).  Tasks whose outputs the application declares as returned are
    exempt — an intentionally independent side computation is fine.
    """
    graph = ctx.graph
    if graph.num_tasks < 2 or not graph.edges():
        return []  # a trivial or fully independent workflow has no "rest"
    returned = ctx.returned_ref_ids or frozenset()
    isolated = [
        task
        for task in graph.tasks()
        if not graph.predecessors(task.task_id)
        and not graph.successors(task.task_id)
        and not any(ref.ref_id in returned for ref in task.outputs)
    ]
    findings = []
    for name, tasks in _grouped(isolated).items():
        findings.append(
            Diagnostic(
                code="WF007",
                message=f"{len(tasks)} {name!r} task(s) are disconnected from "
                "the rest of the DAG (no predecessors, no successors, outputs "
                "never returned); they burn a core without contributing to "
                "the workflow's results",
                task_ids=_ids(tasks),
                task_type=name,
                hint="wire the task into the DAG, return its outputs, or "
                "drop it",
            )
        )
    return findings


def check_zero_cost_tasks(ctx: RuleContext) -> list[Diagnostic]:
    """WF008 — a TaskCost whose every stage simulates as zero.

    Distinct from WF006 (no cost at all): here a cost *was* declared but
    all of its duration-bearing fields are zero, so the simulated stages
    collapse to instants.  That silently skews every timing metric the
    same way a missing cost does, while looking intentional.
    """
    if ctx.config.backend is not Backend.SIMULATED:
        return []  # real-execution backends run the actual function
    zero = [
        t
        for t in ctx.graph.tasks()
        if t.cost is not None
        and t.cost.serial_flops == 0
        and t.cost.parallel_flops == 0
        and t.cost.input_bytes == 0
        and t.cost.output_bytes == 0
        and t.cost.host_device_bytes == 0
    ]
    findings = []
    for name, tasks in _grouped(zero).items():
        findings.append(
            Diagnostic(
                code="WF008",
                message=f"{len(tasks)} {name!r} task(s) declare a TaskCost "
                "whose every duration-bearing field is zero; the simulated "
                "backend runs them as zero-duration stages, skewing every "
                "timing metric",
                task_ids=_ids(tasks),
                task_type=name,
                hint="declare the real demands, or submit with cost=None if "
                "the task is a pure bookkeeping step",
            )
        )
    return findings


# ---------------------------------------------------- WF1xx: feasibility
def check_host_memory(ctx: RuleContext) -> list[Diagnostic]:
    """WF101 — per-task host working set vs node RAM (Figure 9a)."""
    ram = ctx.config.cluster.node.ram_bytes
    offenders = [
        t
        for t in ctx.graph.tasks()
        if t.cost is not None and t.cost.host_memory_bytes > ram
    ]
    findings = []
    for name, tasks in _grouped(offenders).items():
        worst = max(t.cost.host_memory_bytes for t in tasks)
        findings.append(
            Diagnostic(
                code="WF101",
                message=(
                    f"{len(tasks)} {name!r} task(s) need up to {_gib(worst)} "
                    f"of host RAM but a node has {_gib(ram)}; execution "
                    "would abort with HostOutOfMemoryError on CPUs and GPUs "
                    "alike (the paper's 'CPU GPU OOM', Figure 9a)"
                ),
                task_ids=_ids(tasks),
                task_type=name,
                hint="shrink the working set: smaller blocks (larger grid) "
                "or fewer clusters/features per task",
            )
        )
    return findings


def _intended(ctx: RuleContext) -> list[Task]:
    """The tasks the run means for GPU devices."""
    use_gpu, types = ctx.config.use_gpu, ctx.config.gpu_task_types
    return [t for t in ctx.graph.tasks() if gpu_intended(t, use_gpu, types)]


def _gpu_tasks(ctx: RuleContext) -> list[Task]:
    """GPU-intended tasks with costs, when a GPU run targets a GPU cluster."""
    if not ctx.config.use_gpu or not ctx.config.cluster.has_gpus:
        return []
    return [t for t in _intended(ctx) if t.cost is not None]


def check_gpu_memory(ctx: RuleContext) -> list[Diagnostic]:
    """WF102 — per-task device working set vs GPU memory (Figure 9a).

    Quiet under GPU overflow, which runs such a task on a CPU core.
    """
    if ctx.config.gpu_overflow_to_cpu:
        return []
    device = ctx.config.cluster.node.gpu
    offenders = [
        t
        for t in _gpu_tasks(ctx)
        if t.cost.gpu_memory_bytes > device.memory_bytes
    ]
    findings = []
    for name, tasks in _grouped(offenders).items():
        worst = max(t.cost.gpu_memory_bytes for t in tasks)
        findings.append(
            Diagnostic(
                code="WF102",
                message=(
                    f"{len(tasks)} {name!r} task(s) need up to {_gib(worst)} "
                    f"of device memory but {device.name} has "
                    f"{_gib(device.memory_bytes)}; GPU execution would abort "
                    "with GpuOutOfMemoryError (the paper's 'GPU OOM')"
                ),
                task_ids=_ids(tasks),
                task_type=name,
                hint="use smaller blocks (larger grid) or run these tasks "
                "on CPUs (gpu_task_types=)",
            )
        )
    return findings


def check_gpu_available(ctx: RuleContext) -> list[Diagnostic]:
    """WF103 — a GPU run needs a cluster that has GPU devices."""
    cluster = ctx.config.cluster
    if not ctx.config.use_gpu or cluster.has_gpus:
        return []
    intended = _intended(ctx)
    if not intended:
        return []
    return [
        Diagnostic(
            code="WF103",
            message=(
                f"GPU execution requested but cluster "
                f"{cluster.name!r} has no GPU devices; "
                f"{len(intended)} GPU-eligible task(s) cannot be placed"
            ),
            task_ids=_ids(intended),
            hint="run with use_gpu=False, or pick a preset with devices "
            "(minotauro, modern)",
        )
    ]


def check_output_blocks_fit_gpu(ctx: RuleContext) -> list[Diagnostic]:
    """WF104 — each produced block should fit one GPU device's memory."""
    device = ctx.config.cluster.node.gpu
    offenders: list[Task] = []
    worst = 0
    for task in _gpu_tasks(ctx):
        oversized = max(
            (ref.size_bytes for ref in task.outputs), default=0
        )
        if oversized > device.memory_bytes:
            offenders.append(task)
            worst = max(worst, oversized)
    findings = []
    for name, tasks in _grouped(offenders).items():
        findings.append(
            Diagnostic(
                code="WF104",
                message=(
                    f"{len(tasks)} {name!r} task(s) produce a block of up to "
                    f"{_gib(worst)}, larger than one {device.name} "
                    f"({_gib(device.memory_bytes)}); the result cannot stay "
                    "device-resident and must stream back over PCIe"
                ),
                task_ids=_ids(tasks),
                task_type=name,
                hint="use smaller output blocks (larger grid)",
            )
        )
    return findings


# ----------------------------------------------- WF2xx: performance smells
def check_launch_overhead(ctx: RuleContext) -> list[Diagnostic]:
    """WF201 — tiny kernels where launch overhead dominates (O1)."""
    model = ctx.cost_model
    launch = model.gpu.launch_overhead
    if launch <= 0:
        return []
    offenders = []
    for task in _gpu_tasks(ctx):
        if task.cost.parallel_flops <= 0:
            continue
        total = model.parallel_fraction_time_gpu(task.cost)
        if total > 0 and launch / total >= LAUNCH_OVERHEAD_SHARE:
            offenders.append(task)
    findings = []
    for name, tasks in _grouped(offenders).items():
        findings.append(
            Diagnostic(
                code="WF201",
                message=(
                    f"{len(tasks)} {name!r} kernel(s) are so small that "
                    f"launch overhead ({launch * 1e6:.0f} us) is >= "
                    f"{LAUNCH_OVERHEAD_SHARE:.0%} of their GPU parallel "
                    "fraction; the GPU cannot pay off at this granularity "
                    "(the paper's O1)"
                ),
                task_ids=_ids(tasks),
                task_type=name,
                hint="use larger blocks (smaller grid) so each kernel does "
                "more work per launch",
            )
        )
    return findings


def check_transfer_bound(ctx: RuleContext) -> list[Diagnostic]:
    """WF202 — PCIe transfer time exceeds modeled kernel time (O4)."""
    model = ctx.cost_model
    offenders = []
    for task in _gpu_tasks(ctx):
        if task.cost.host_device_bytes <= 0 or task.cost.parallel_flops <= 0:
            continue
        comm = model.cpu_gpu_comm_time(task.cost)
        kernel = model.parallel_fraction_time_gpu(task.cost)
        if comm > kernel:
            offenders.append(task)
    findings = []
    for name, tasks in _grouped(offenders).items():
        findings.append(
            Diagnostic(
                code="WF202",
                message=(
                    f"{len(tasks)} {name!r} task(s) spend longer moving data "
                    "over PCIe than computing on the device; GPU placement "
                    "is transfer-bound (the paper's O4)"
                ),
                task_ids=_ids(tasks),
                task_type=name,
                hint="keep these tasks on CPUs (gpu_task_types=), raise "
                "arithmetic intensity, or enable comm_overlap",
            )
        )
    return findings


def check_dag_width(ctx: RuleContext) -> list[Diagnostic]:
    """WF203 — the DAG should be wide enough to fill the cluster."""
    if ctx.graph.num_tasks <= 1:
        return []
    width = ctx.graph.width
    use_gpu = ctx.config.use_gpu
    slots = ctx.config.cluster.parallel_slots(use_gpu)
    if slots <= 0 or width >= slots * WIDTH_SLOT_SHARE:
        return []
    kind = "GPU devices" if use_gpu else "CPU cores"
    return [
        Diagnostic(
            code="WF203",
            message=(
                f"DAG width {width} uses under {WIDTH_SLOT_SHARE:.0%} "
                f"of the cluster's {slots} {kind}; most of the cluster will "
                "sit idle"
            ),
            hint="use a finer grid (more blocks) or a smaller cluster",
        )
    ]


# --------------------------------------------------- WF3xx: resilience
def check_retries_disabled(ctx: RuleContext) -> list[Diagnostic]:
    """WF301 — an injecting fault plan with retries turned off.

    Fires for a single-attempt budget; with no policy the executor's
    default (which retries) applies.
    """
    plan = ctx.config.fault_plan
    if plan is None or plan.is_empty or ctx.retry_policy.max_attempts > 1:
        return []
    return [
        Diagnostic(
            code="WF301",
            message=(
                "the fault plan injects failures but retry_policy allows "
                "only one attempt per task; any injected fault fails the "
                "task (and its dependents) permanently"
            ),
            hint="raise RetryPolicy(max_attempts=...) above 1, or drop the "
            "fault plan",
        )
    ]


def check_unprotected_barriers(ctx: RuleContext) -> list[Diagnostic]:
    """WF303 — node faults can destroy the only replica of a barrier output.

    A barrier task (a single-task DAG level whose outputs feed later
    work) produces blocks with exactly one replica, on whichever node ran
    it.  With node faults planned and no checkpoint policy, losing that
    node either fails every dependent (recovery off) or forces lineage
    recomputation to walk back through the barrier and re-run everything
    behind it (recovery on).  A checkpoint at the barrier bounds both.
    """
    plan = ctx.config.fault_plan
    if plan is None or not plan.node_faults:
        return []
    if ctx.config.checkpoint_policy is not None:
        return []
    graph = ctx.graph
    levels = graph.levels()
    if not levels:
        return []
    max_level = max(levels.values())
    width_of: dict[int, int] = {}
    for task_id, level in levels.items():
        width_of[level] = width_of.get(level, 0) + 1
    consumed = {ref.ref_id for task in graph.tasks() for ref in task.inputs}
    barriers = [
        task
        for task in graph.tasks()
        if width_of[levels[task.task_id]] == 1
        and levels[task.task_id] < max_level
        and any(ref.ref_id in consumed for ref in task.outputs)
    ]
    if not barriers:
        return []
    return [
        Diagnostic(
            code="WF303",
            message=(
                f"the fault plan kills node(s) while {len(barriers)} barrier "
                "task(s) (single-task DAG levels) produce the only replica "
                "of blocks that later levels consume; losing that node "
                "fails the dependents or forces recomputation past the "
                "barrier"
            ),
            task_ids=_ids(barriers),
            hint="set checkpoint_policy (e.g. CheckpointPolicy("
            "task_types={...}) naming the barrier types) so recovery "
            "restarts from shared storage instead",
        )
    ]
