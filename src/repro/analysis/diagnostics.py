"""Diagnostic records emitted by the static workflow analyzer.

A :class:`Diagnostic` is one finding about a workflow, identified by a
stable ``WFnnn`` code so scripts (and CI jobs wrapping ``repro lint``)
can filter or suppress individual rules without string-matching messages.
Codes are grouped by family:

* ``WF0xx`` — graph hazards: wasted, disconnected or uncosted tasks.
  Whether the DAG itself is well formed (one producer per ref, no task
  consuming its own output, no cycle) is decided once, by
  :meth:`~repro.runtime.dag.TaskGraph.add_task`.
* ``WF1xx`` — feasibility: demands that cannot be met by the target
  cluster (the paper's "GPU OOM" / "CPU GPU OOM" annotations, predicted
  before anything runs).
* ``WF2xx`` — performance smells: configurations that will run, but in a
  regime the paper's observations O1-O6 identify as slow.
* ``WF3xx`` — resilience: fault-injection plans and recovery policies
  that contradict each other or the target cluster.
* ``WF4xx`` — block-access races: read-after-free hazards across
  node-death/recovery paths and checkpoint/lineage inconsistencies
  (:mod:`repro.analysis.races`).

Each code's severity, category and one-line summary are written once,
in :data:`RULES`, beside the ``DLnnn`` codes of ``repro devlint``.  An
:class:`AnalysisReport` aggregates the findings of one analyzer pass and
renders them as text or JSON.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(str, enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings predict execution failure or a meaningless result
    (``repro lint`` exits 1 on any).  ``WARNING`` findings predict a bad
    but survivable outcome; ``INFO`` findings are advisory.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


@dataclass(frozen=True)
class Rule:
    """One row of the rule table."""

    code: str
    severity: Severity
    #: Rule family ("graph", "feasibility", "performance", "resilience",
    #: "races", "determinism").
    category: str
    summary: str


#: Every rule, workflow (``WFnnn``) and devlint (``DLnnn``), by code: the
#: one place a code's severity, category and summary are written.
#: ``docs/linting.md`` documents each with an example and a fix, and
#: embeds :func:`rule_table`.
RULES: dict[str, Rule] = {
    rule.code: rule
    for rule in (
        Rule("DL001", Severity.WARNING, "determinism",
             "set/frozenset iterated without sorted(): order varies run to run"),
        Rule("DL002", Severity.WARNING, "determinism",
             "id() used in a sort key or heap entry: address-based tie-breaks"),
        Rule("DL003", Severity.WARNING, "determinism",
             "heappush entry lacks a sequence counter: unstable tie order"),
        Rule("DL004", Severity.WARNING, "determinism",
             "module-global or unseeded RNG: not replayable"),
        Rule("DL005", Severity.WARNING, "determinism",
             "wall-clock read: only simulated time may influence results"),
        Rule("DL006", Severity.WARNING, "determinism",
             "queue.get()/process.join() without a timeout can wedge forever"),
        Rule("WF005", Severity.WARNING, "graph",
             "dead task: outputs never consumed nor returned"),
        Rule("WF006", Severity.WARNING, "graph",
             "task has no TaskCost for the simulated backend"),
        Rule("WF007", Severity.WARNING, "graph",
             "unreachable task: disconnected from the rest of the DAG"),
        Rule("WF008", Severity.WARNING, "graph",
             "zero-cost task: a TaskCost whose every stage is zero"),
        Rule("WF101", Severity.ERROR, "feasibility",
             "host working set exceeds node RAM (the paper's 'CPU GPU OOM')"),
        Rule("WF102", Severity.ERROR, "feasibility",
             "GPU working set exceeds device memory (the paper's 'GPU OOM')"),
        Rule("WF103", Severity.ERROR, "feasibility",
             "GPU execution requested on a cluster without GPU devices"),
        Rule("WF104", Severity.WARNING, "feasibility",
             "output block larger than one GPU device's memory"),
        Rule("WF201", Severity.WARNING, "performance",
             "kernel launch overhead dominates the GPU parallel fraction (O1)"),
        Rule("WF202", Severity.WARNING, "performance",
             "PCIe transfer time exceeds modeled GPU kernel time (O4)"),
        Rule("WF203", Severity.INFO, "performance",
             "DAG width far below the cluster's parallel slot count"),
        Rule("WF301", Severity.WARNING, "resilience",
             "fault plan injects failures but the retry policy allows no retries"),
        Rule("WF303", Severity.WARNING, "resilience",
             "node faults can destroy the only replica of a barrier output "
             "(no checkpoint policy)"),
        Rule("WF402", Severity.WARNING, "races",
             "read-after-free: lineage recovery can walk into a "
             "permanently failed producer"),
        Rule("WF404", Severity.WARNING, "races",
             "checkpoint policy names task types absent from the graph"),
    )
}


def rule_table() -> str:
    """The docs/linting.md rule table: one markdown row per rule.

    ``tests/test_docs_consistency.py`` asserts the committed table
    equals this output, so it cannot drift.
    """
    lines = [
        "| code | severity | category | summary |",
        "| --- | --- | --- | --- |",
    ]
    for rule in RULES.values():
        lines.append(
            f"| {rule.code} | {rule.severity.value} | {rule.category} "
            f"| {rule.summary} |"
        )
    return "\n".join(lines)


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding.

    Findings are aggregated per task type: ``task_ids`` lists every
    affected task, ``task_type`` the shared type name (empty for
    graph-wide findings such as a narrow DAG).
    """

    code: str
    message: str
    task_ids: tuple[int, ...] = ()
    task_type: str = ""
    #: Actionable suggestion — how to make the finding go away.
    hint: str = ""

    def __post_init__(self) -> None:
        if self.code not in RULES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")

    @property
    def severity(self) -> Severity:
        """The code's severity, as the rule table states it."""
        return RULES[self.code].severity

    def to_dict(self) -> dict:
        """JSON-ready representation (``repro lint --format json``)."""
        return {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "task_ids": list(self.task_ids),
            "task_type": self.task_type,
            "hint": self.hint,
        }

    def render(self) -> str:
        """One- or two-line human-readable form."""
        scope = ""
        if self.task_ids:
            shown = ", ".join(f"#{t}" for t in self.task_ids[:5])
            more = len(self.task_ids) - 5
            if more > 0:
                shown += f", ... (+{more} more)"
            label = f" {self.task_type}" if self.task_type else ""
            scope = f" [{len(self.task_ids)} task(s){label}: {shown}]"
        text = f"{self.severity.value.upper():7s} {self.code}: {self.message}{scope}"
        if self.hint:
            text += f"\n        hint: {self.hint}"
        return text


@dataclass
class AnalysisReport:
    """All findings of one static-analysis pass over a workflow."""

    #: Name of the cluster the run targets.
    cluster: str
    use_gpu: bool
    diagnostics: list[Diagnostic] = field(default_factory=list)

    def by_severity(self, severity: Severity) -> list[Diagnostic]:
        """Findings of one severity, in emission order."""
        return [d for d in self.diagnostics if d.severity is severity]

    @property
    def errors(self) -> list[Diagnostic]:
        """Findings that predict failure."""
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> list[Diagnostic]:
        """Findings that predict a bad but survivable outcome."""
        return self.by_severity(Severity.WARNING)

    @property
    def has_errors(self) -> bool:
        """Whether the workflow should be refused."""
        return bool(self.errors)

    def codes(self) -> set[str]:
        """The distinct codes present in the report."""
        return {d.code for d in self.diagnostics}

    def summary(self) -> dict[str, int]:
        """Finding counts by severity."""
        return {
            "errors": len(self.by_severity(Severity.ERROR)),
            "warnings": len(self.by_severity(Severity.WARNING)),
            "info": len(self.by_severity(Severity.INFO)),
        }

    def render(self) -> str:
        """The whole report as text (``repro lint`` default output)."""
        mode = "GPU" if self.use_gpu else "CPU"
        lines = [f"workflow analysis against {self.cluster} ({mode} execution)"]
        if not self.diagnostics:
            lines.append("no findings: workflow is clean")
            return "\n".join(lines)
        for severity in (Severity.ERROR, Severity.WARNING, Severity.INFO):
            for diagnostic in self.by_severity(severity):
                lines.append(diagnostic.render())
        counts = self.summary()
        lines.append(
            f"{counts['errors']} error(s), {counts['warnings']} warning(s), "
            f"{counts['info']} info"
        )
        return "\n".join(lines)

    def to_json(self) -> str:
        """The whole report as JSON (``repro lint --format json``).

        The output is byte-stable: diagnostics are ordered by
        (code, task ids, task type) rather than rule-emission order, keys
        are sorted, and the encoding is
        :func:`~repro.core.persistence.dumps_deterministic`'s, so CI can
        diff lint reports across runs.
        """
        from repro.core.persistence import dumps_deterministic

        ordered = sorted(
            self.diagnostics,
            key=lambda d: (d.code, d.task_ids, d.task_type, d.message),
        )
        return dumps_deterministic(
            {
                "cluster": self.cluster,
                "use_gpu": self.use_gpu,
                "summary": self.summary(),
                "diagnostics": [d.to_dict() for d in ordered],
            }
        )
