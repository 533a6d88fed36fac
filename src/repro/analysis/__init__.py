"""Pre-execution workflow analysis: the ``repro lint`` static analyzer.

The paper's headline failures are all predictable before a single task
runs: Figure 9a's "CPU GPU OOM" (a distance matrix larger than node RAM),
the launch-overhead regime of observation O1, and the transfer-bound
placements of O4 are functions of the DAG, the declared
:class:`~repro.perfmodel.TaskCost` demands, and the cluster spec alone.
This package checks all of them statically and reports structured
:class:`Diagnostic` records with stable ``WFnnn`` codes (documented in
``docs/linting.md``).

Two entry points:

* :func:`analyze` — library API: a built graph and the
  :class:`~repro.runtime.RuntimeConfig` it would run under;
* ``repro lint`` — the CLI front-end (text or JSON output, non-zero exit
  on errors).

Every rule's code, severity, category and summary is written once, in
:data:`RULES`.
"""

from repro.analysis.analyzer import analyze, collect_ref_ids
from repro.analysis.devlint import LintFinding, lint_paths, lint_source
from repro.analysis.diagnostics import (
    RULES,
    AnalysisReport,
    Diagnostic,
    Severity,
    rule_table,
)
from repro.analysis.sanitizer import (
    SanitizerReport,
    TraceSanitizerError,
    Violation,
    sanitize_result,
)

__all__ = [
    "AnalysisReport",
    "Diagnostic",
    "LintFinding",
    "RULES",
    "SanitizerReport",
    "Severity",
    "TraceSanitizerError",
    "Violation",
    "analyze",
    "collect_ref_ids",
    "lint_paths",
    "lint_source",
    "rule_table",
    "sanitize_result",
]
