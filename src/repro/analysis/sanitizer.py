"""Trace sanitizer: replay an executor trace through invariant checks.

The ASan-style dynamic leg of the correctness tooling: where the static
``WF4xx`` rules predict hazards from the configuration, the sanitizer
verifies that one *actual* execution respected the model's physical
laws.  ``Runtime.run(sanitize=True)`` (CLI ``--sanitize``) replays the
produced trace through five checks:

* **event-time monotonicity** — no record runs backwards, and the stage
  records of one attempt complete in non-decreasing order;
* **happens-before** — a consumer never starts before some committed
  record of each producer has ended (the DAG edge order is preserved in
  time, resurrections included);
* **attempt state-machine legality** — attempt numbers are contiguous
  from 1, a task commits at most once per resurrection, attempts of one
  task never overlap, and every task either committed or is in
  ``failed_task_ids``;
* **resource conservation** — per node, concurrently held CPU cores,
  GPU devices, and reserved host RAM never exceed the node's capacity,
  and one (node, core) slot never runs two records at once;
* **residency / placement consistency** — records sit on nodes and
  cores the cluster has, GPU usage matches the configuration, and no
  committed record straddles the instant its node was killed.

Off by default (it costs a full pass over the trace); CI arms it on the
24-cell golden suite, where it must report zero violations without
perturbing a single trace byte — the sanitizer only *reads* the trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.tracing import Stage, Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.runtime.runtime import WorkflowResult

#: Slack for floating-point timestamp comparisons.
EPS = 1e-9

#: Master-side zero-duration markers occupy no core (node/core -1).
_OFF_CORE = {Stage.FAILURE, Stage.RETRY_WAIT, Stage.RECOMPUTE}

#: The check names, in report order.
CHECKS = (
    "monotonicity",
    "happens_before",
    "attempt_machine",
    "conservation",
    "placement",
)


@dataclass(frozen=True)
class Violation:
    """One broken invariant found while replaying a trace."""

    check: str
    message: str
    task_ids: tuple[int, ...] = ()

    def render(self) -> str:
        """One-line human-readable form."""
        scope = ""
        if self.task_ids:
            scope = " [task(s) " + ", ".join(f"#{t}" for t in self.task_ids) + "]"
        return f"{self.check}: {self.message}{scope}"


@dataclass
class SanitizerReport:
    """Outcome of one sanitizer replay over a trace."""

    violations: list[Violation] = field(default_factory=list)
    checks_run: tuple[str, ...] = CHECKS
    #: Stage + task + attempt records inspected.
    events_checked: int = 0

    @property
    def ok(self) -> bool:
        """Whether the trace satisfied every invariant."""
        return not self.violations

    def render(self) -> str:
        """The whole report as text (``repro run --sanitize`` output)."""
        header = (
            f"trace sanitizer: {len(self.checks_run)} checks over "
            f"{self.events_checked} records"
        )
        if self.ok:
            return header + " — clean"
        lines = [header + f" — {len(self.violations)} violation(s)"]
        lines += [v.render() for v in self.violations]
        return "\n".join(lines)


class TraceSanitizerError(RuntimeError):
    """Raised by ``Runtime.run(sanitize=True)`` on a corrupt trace;
    carries the full :class:`SanitizerReport`."""

    def __init__(self, report: SanitizerReport) -> None:
        self.report = report
        checks = sorted({v.check for v in report.violations})
        super().__init__(
            f"trace sanitizer found {len(report.violations)} violation(s) "
            f"[{', '.join(checks)}]; see .report for details"
        )


# ------------------------------------------------------------ the checks
def _check_monotonicity(trace: Trace, out: list[Violation]) -> None:
    for record in trace.stages + trace.tasks + trace.attempts:
        if record.end < record.start - EPS:
            out.append(
                Violation(
                    check="monotonicity",
                    message=f"record ends at {record.end} before its start "
                    f"{record.start}",
                    task_ids=(record.task_id,),
                )
            )
    # Stage records of one attempt are emitted at completion, so their
    # end times must be non-decreasing in emission order.
    last_end: dict[tuple[int, int], float] = {}
    for record in trace.stages:
        if record.stage in _OFF_CORE:
            continue
        key = (record.task_id, record.attempt)
        previous = last_end.get(key)
        if previous is not None and record.end < previous - EPS:
            out.append(
                Violation(
                    check="monotonicity",
                    message=(
                        f"stage {record.stage.value} of attempt "
                        f"{record.attempt} completes at {record.end}, before "
                        f"the previously emitted stage ({previous})"
                    ),
                    task_ids=(record.task_id,),
                )
            )
        last_end[key] = record.end


def _check_happens_before(result: "WorkflowResult", out: list[Violation]) -> None:
    trace = result.trace
    ends: dict[int, list[float]] = {}
    for record in trace.tasks:
        ends.setdefault(record.task_id, []).append(record.end)
    for record in trace.tasks:
        for predecessor in result.graph.predecessors(record.task_id):
            produced = ends.get(predecessor.task_id)
            if produced is None:
                out.append(
                    Violation(
                        check="happens_before",
                        message=(
                            f"task #{record.task_id} committed but its "
                            f"producer #{predecessor.task_id} never did"
                        ),
                        task_ids=(predecessor.task_id, record.task_id),
                    )
                )
                continue
            if min(produced) > record.start + EPS:
                out.append(
                    Violation(
                        check="happens_before",
                        message=(
                            f"task #{record.task_id} started at "
                            f"{record.start} before any commit of its "
                            f"producer #{predecessor.task_id} "
                            f"(earliest {min(produced)})"
                        ),
                        task_ids=(predecessor.task_id, record.task_id),
                    )
                )


def _check_attempt_machine(result: "WorkflowResult", out: list[Violation]) -> None:
    trace = result.trace
    recomputes: dict[int, int] = {}
    for record in trace.stages:
        if record.stage is Stage.RECOMPUTE:
            recomputes[record.task_id] = recomputes.get(record.task_id, 0) + 1
    # One pass groups the attempts per task in emission order; the stable
    # sort then orders each group as ``Trace.attempts_of`` does.
    attempts_of: dict[int, list] = {}
    for attempt in trace.attempts:
        attempts_of.setdefault(attempt.task_id, []).append(attempt)
    for task_id in sorted(attempts_of):
        attempts = sorted(attempts_of[task_id], key=lambda a: a.attempt)
        numbers = [a.attempt for a in attempts]
        if numbers != list(range(1, len(numbers) + 1)):
            out.append(
                Violation(
                    check="attempt_machine",
                    message=f"attempt numbers {numbers} are not contiguous "
                    "from 1",
                    task_ids=(task_id,),
                )
            )
        commits = sum(1 for a in attempts if a.ok)
        if commits > 1 + recomputes.get(task_id, 0):
            out.append(
                Violation(
                    check="attempt_machine",
                    message=(
                        f"{commits} successful attempts but only "
                        f"{recomputes.get(task_id, 0)} resurrection marker(s)"
                    ),
                    task_ids=(task_id,),
                )
            )
        for earlier, later in zip(attempts, attempts[1:]):
            if earlier.end > later.start + EPS:
                out.append(
                    Violation(
                        check="attempt_machine",
                        message=(
                            f"attempt {later.attempt} started at "
                            f"{later.start} before attempt {earlier.attempt} "
                            f"ended at {earlier.end}"
                        ),
                        task_ids=(task_id,),
                    )
                )
    committed = {t.task_id for t in trace.tasks}
    failed = set(result.failed_task_ids)
    for task in result.graph.tasks():
        if task.task_id not in committed and task.task_id not in failed:
            out.append(
                Violation(
                    check="attempt_machine",
                    message="task neither committed nor failed permanently",
                    task_ids=(task.task_id,),
                )
            )
    for task_id in sorted(committed & failed):
        if task_id not in recomputes:
            out.append(
                Violation(
                    check="attempt_machine",
                    message="task both committed and failed without a "
                    "resurrection marker",
                    task_ids=(task_id,),
                )
            )


def _sweep_peak(intervals: list[tuple[float, float, int]]) -> int:
    """Peak concurrent weight over (start, end, weight) intervals."""
    events: list[tuple[float, int]] = []
    for start, end, weight in intervals:
        if end - start <= EPS:
            continue  # zero-duration holds (e.g. cancelled-at-birth attempts)
        events.append((start + EPS / 2, weight))
        events.append((end - EPS / 2, -weight))
    events.sort()
    active = peak = 0
    for _time, delta in events:
        active += delta
        peak = max(peak, active)
    return peak


def _check_conservation(result: "WorkflowResult", out: list[Violation]) -> None:
    config = result.config
    spec = config.cluster
    occupancy = result.trace.occupancy()
    cpu_weight = config.cpu_threads_per_task
    by_node: dict[int, dict[str, list[tuple[float, float, int]]]] = {}
    by_slot: dict[tuple[int, int], list[tuple[float, float, str]]] = {}
    for record in occupancy:
        if record.node < 0:
            continue
        task = result.graph.task(record.task_id)
        ram = task.cost.host_memory_bytes if task.cost is not None else 0
        node = by_node.setdefault(
            record.node, {"cores": [], "gpus": [], "ram": []}
        )
        weight = 1 if record.used_gpu else cpu_weight
        node["cores"].append((record.start, record.end, weight))
        if record.used_gpu:
            node["gpus"].append((record.start, record.end, 1))
        if ram > 0:
            node["ram"].append((record.start, record.end, ram))
        by_slot.setdefault((record.node, record.core), []).append(
            (record.start, record.end, f"task #{record.task_id} "
             f"(attempt {record.attempt})")
        )
    for node_index in sorted(by_node):
        usage = by_node[node_index]
        peak_cores = _sweep_peak(usage["cores"])
        if peak_cores > spec.node.cpu.cores_per_node:
            out.append(
                Violation(
                    check="conservation",
                    message=(
                        f"node {node_index} holds {peak_cores} cores "
                        f"concurrently but has "
                        f"{spec.node.cpu.cores_per_node}"
                    ),
                )
            )
        peak_gpus = _sweep_peak(usage["gpus"])
        if peak_gpus > spec.node.gpu.devices_per_node:
            out.append(
                Violation(
                    check="conservation",
                    message=(
                        f"node {node_index} holds {peak_gpus} GPU devices "
                        f"concurrently but has "
                        f"{spec.node.gpu.devices_per_node}"
                    ),
                )
            )
        peak_ram = _sweep_peak(usage["ram"])
        if peak_ram > spec.node.ram_bytes:
            out.append(
                Violation(
                    check="conservation",
                    message=(
                        f"node {node_index} reserves {peak_ram} bytes of "
                        f"host RAM concurrently but has {spec.node.ram_bytes}"
                    ),
                )
            )
    for (node_index, core), intervals in sorted(by_slot.items()):
        ordered = sorted(intervals)
        for (s1, e1, what1), (s2, e2, what2) in zip(ordered, ordered[1:]):
            if e1 > s2 + EPS:
                out.append(
                    Violation(
                        check="conservation",
                        message=(
                            f"core ({node_index}, {core}) runs {what1} "
                            f"[{s1}, {e1}] and {what2} [{s2}, {e2}] at once"
                        ),
                    )
                )


def _check_placement(result: "WorkflowResult", out: list[Violation]) -> None:
    config = result.config
    spec = config.cluster
    trace = result.trace
    num_nodes = spec.num_nodes
    cores = spec.node.cpu.cores_per_node
    gpu_allowed = config.use_gpu and spec.has_gpus
    records = list(trace.tasks) + list(trace.attempts) + [
        r for r in trace.stages if r.stage not in _OFF_CORE
    ]
    for record in records:
        if not (0 <= record.node < num_nodes) or not (0 <= record.core < cores):
            out.append(
                Violation(
                    check="placement",
                    message=(
                        f"record placed on (node {record.node}, core "
                        f"{record.core}) outside the cluster "
                        f"({num_nodes} nodes x {cores} cores)"
                    ),
                    task_ids=(record.task_id,),
                )
            )
        if record.used_gpu:
            if not gpu_allowed:
                out.append(
                    Violation(
                        check="placement",
                        message="record used a GPU but the configuration "
                        "forbids GPU execution",
                        task_ids=(record.task_id,),
                    )
                )
            elif (
                config.gpu_task_types is not None
                and record.task_type not in config.gpu_task_types
            ):
                out.append(
                    Violation(
                        check="placement",
                        message=(
                            f"task type {record.task_type!r} used a GPU but "
                            "is not in gpu_task_types"
                        ),
                        task_ids=(record.task_id,),
                    )
                )
    plan = config.fault_plan
    if plan is None:
        return
    committed = list(trace.tasks) + [a for a in trace.attempts if a.ok]
    for fault in plan.node_faults:
        for record in committed:
            if record.node != fault.node:
                continue
            if record.start < fault.at_time - EPS and record.end > fault.at_time + EPS:
                out.append(
                    Violation(
                        check="placement",
                        message=(
                            f"record on node {fault.node} spans the node's "
                            f"planned death at t={fault.at_time} "
                            f"([{record.start}, {record.end}]) yet committed"
                        ),
                        task_ids=(record.task_id,),
                    )
                )


# ------------------------------------------------------------ entry point
def sanitize_result(result: "WorkflowResult") -> SanitizerReport:
    """Replay a workflow result's trace through every invariant check.

    Pure read-only analysis: the trace, graph, and config are inspected,
    never mutated, so a sanitized run stays bit-identical to an
    unsanitized one.  Only meaningful for the simulated backend, whose
    records carry node/core placements.
    """
    trace = result.trace
    report = SanitizerReport(
        events_checked=len(trace.stages) + len(trace.tasks) + len(trace.attempts)
    )
    _check_monotonicity(trace, report.violations)
    _check_happens_before(result, report.violations)
    _check_attempt_machine(result, report.violations)
    _check_conservation(result, report.violations)
    _check_placement(result, report.violations)
    return report
