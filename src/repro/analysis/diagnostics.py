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

An :class:`AnalysisReport` aggregates the findings of one analyzer pass
and renders them as text or JSON.
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


#: Stable code -> one-line description of every rule the analyzer knows.
#: ``docs/linting.md`` documents each with an example and a fix.
CODES: dict[str, str] = {
    "WF005": "dead task: outputs never consumed nor returned",
    "WF006": "task has no TaskCost for the simulated backend",
    "WF007": "unreachable task: disconnected from the rest of the DAG",
    "WF008": "zero-cost task: a TaskCost whose every stage is zero",
    "WF101": "host working set exceeds node RAM (the paper's 'CPU GPU OOM')",
    "WF102": "GPU working set exceeds device memory (the paper's 'GPU OOM')",
    "WF103": "GPU execution requested on a cluster without GPU devices",
    "WF104": "output block larger than one GPU device's memory",
    "WF201": "kernel launch overhead dominates the GPU parallel fraction (O1)",
    "WF202": "PCIe transfer time exceeds modeled GPU kernel time (O4)",
    "WF203": "DAG width far below the cluster's parallel slot count",
    "WF301": "fault plan injects failures but the retry policy allows no retries",
    "WF303": "node faults can destroy the only replica of a barrier output "
    "(no checkpoint policy)",
    "WF402": "read-after-free: lineage recovery can walk into a "
    "permanently failed producer",
    "WF404": "checkpoint policy names task types absent from the graph",
}


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding.

    Findings are aggregated per task type: ``task_ids`` lists every
    affected task, ``task_type`` the shared type name (empty for
    graph-wide findings such as a narrow DAG).
    """

    code: str
    severity: Severity
    message: str
    task_ids: tuple[int, ...] = ()
    task_type: str = ""
    #: Actionable suggestion — how to make the finding go away.
    hint: str = ""

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")

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

    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: Label of the cluster the feasibility rules checked against ("" when
    #: the analyzer ran structure-only, without a ClusterSpec).
    cluster: str = ""
    use_gpu: bool = False

    def extend(self, findings: list[Diagnostic]) -> None:
        """Append findings from one rule."""
        self.diagnostics.extend(findings)

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
        lines = []
        header = "workflow analysis"
        if self.cluster:
            header += f" against {self.cluster}"
            header += " (GPU execution)" if self.use_gpu else " (CPU execution)"
        lines.append(header)
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

    def to_json(self, indent: int | None = 2) -> str:
        """The whole report as JSON (``repro lint --format json``).

        The output is byte-stable: diagnostics are ordered by
        (code, task ids, task type) rather than rule-emission order, keys
        are sorted, and the encoding matches
        :func:`~repro.core.persistence.dumps_deterministic` (``indent``
        is accepted for backwards compatibility but the deterministic
        two-space indent always applies), so CI can diff lint reports
        across runs.
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
