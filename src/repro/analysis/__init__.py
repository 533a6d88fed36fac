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

* :func:`analyze` / :func:`analyze_runtime` — library API;
* ``repro lint`` — the CLI front-end (text or JSON output, non-zero exit
  on errors).
"""

from repro.analysis.analyzer import analyze, analyze_runtime, collect_ref_ids
from repro.analysis.baseline import filter_new, load_baseline, save_baseline
from repro.analysis.devlint import LintFinding, lint_paths, lint_source
from repro.analysis.diagnostics import (
    CODES,
    AnalysisReport,
    Diagnostic,
    Severity,
)
from repro.analysis.registry import (
    KIND_DEVLINT,
    KIND_WORKFLOW,
    RuleSpec,
    known_codes,
    register,
    register_devlint,
    rule_table,
    spec_for,
    specs,
)
from repro.analysis.rules import AnalysisOptions, RuleContext, all_rules
from repro.analysis.sanitizer import (
    SanitizerReport,
    TraceSanitizerError,
    Violation,
    sanitize_result,
)

__all__ = [
    "AnalysisOptions",
    "AnalysisReport",
    "CODES",
    "Diagnostic",
    "KIND_DEVLINT",
    "KIND_WORKFLOW",
    "LintFinding",
    "RuleContext",
    "RuleSpec",
    "SanitizerReport",
    "Severity",
    "TraceSanitizerError",
    "Violation",
    "all_rules",
    "analyze",
    "analyze_runtime",
    "collect_ref_ids",
    "filter_new",
    "known_codes",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "register",
    "register_devlint",
    "rule_table",
    "sanitize_result",
    "save_baseline",
    "spec_for",
    "specs",
]
