"""The static workflow analyzer: run every rule over a built task graph.

:func:`analyze` checks a graph against the
:class:`~repro.runtime.RuntimeConfig` that ``Runtime.run()`` would
execute it under, so the diagnostics describe exactly that run; nothing
is executed.

Typical use::

    runtime = Runtime(RuntimeConfig(use_gpu=True))
    refs = workflow.build(runtime)
    report = analyze(runtime.graph, runtime.config, returned=refs)
    if report.has_errors:
        print(report.render())          # WF101: host OOM predicted, ...
"""

from __future__ import annotations

from typing import Any

from repro.analysis import races, rules
from repro.analysis.diagnostics import AnalysisReport, Diagnostic
from repro.perfmodel.costmodel import CostModel
from repro.runtime.dag import TaskGraph
from repro.runtime.runtime import RuntimeConfig

#: Every workflow rule, in code order: the text report lists the
#: findings of one severity in this order.
_CHECKS = (
    rules.check_dead_tasks,
    rules.check_missing_costs,
    rules.check_unreachable_tasks,
    rules.check_zero_cost_tasks,
    rules.check_host_memory,
    rules.check_gpu_memory,
    rules.check_gpu_available,
    rules.check_output_blocks_fit_gpu,
    rules.check_launch_overhead,
    rules.check_transfer_bound,
    rules.check_dag_width,
    rules.check_retries_disabled,
    rules.check_unprotected_barriers,
    races.check_read_after_free,
    races.check_checkpoint_types_exist,
)


def collect_ref_ids(value: Any) -> frozenset[int]:
    """Ref ids reachable from an arbitrary build() return value.

    Walks nested tuples/lists/dicts, accepts bare
    :class:`~repro.runtime.DataRef` objects and anything exposing
    ``blocks()`` (e.g. :class:`~repro.arrays.DistributedArray`).
    """
    found: set[int] = set()
    _collect(value, found)
    return frozenset(found)


def _collect(value: Any, found: set[int]) -> None:
    if value is None:
        return
    ref_id = getattr(value, "ref_id", None)
    if ref_id is not None:
        found.add(ref_id)
        return
    blocks = getattr(value, "blocks", None)
    if callable(blocks):
        _collect(blocks(), found)
        return
    if isinstance(value, dict):
        for item in value.values():
            _collect(item, found)
        return
    if isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            _collect(item, found)


def analyze(
    graph: TaskGraph,
    config: RuntimeConfig,
    *,
    returned: Any = None,
    ignore: frozenset[str] = frozenset(),
) -> AnalysisReport:
    """Run all diagnostic rules over a built task graph.

    Parameters
    ----------
    graph:
        The workflow DAG (nothing is executed).
    config:
        The configuration the graph would run under: cluster, backend,
        GPU placement, and the fault, retry and checkpoint settings.
    returned:
        The refs the application keeps as results (any nesting), so the
        dead-task rule knows terminal outputs are wanted.  ``None`` means
        unknown: final-level tasks are then given the benefit of the
        doubt.
    ignore:
        Codes dropped for the whole pass (the global counterpart of the
        per-task ``ignore=`` API).
    """
    context = rules.RuleContext(
        graph=graph,
        config=config,
        cost_model=CostModel(config.cluster),
        returned_ref_ids=None if returned is None else collect_ref_ids(returned),
    )
    findings = [finding for check in _CHECKS for finding in check(context)]
    return AnalysisReport(
        cluster=config.cluster.name,
        use_gpu=config.use_gpu,
        diagnostics=_apply_suppressions(findings, graph, ignore),
    )


def _apply_suppressions(
    diagnostics: list[Diagnostic], graph: TaskGraph, ignore: frozenset[str]
) -> list[Diagnostic]:
    """Drop findings the user has explicitly accepted.

    A diagnostic is suppressed when its code is in ``ignore`` (global),
    or when *every* task it names carries the code in its own ``ignore``
    set (``@task(ignore=...)`` / ``submit(ignore=...)``).  Graph-wide
    findings (no task ids) only honour the global set — a per-task
    annotation cannot waive a whole-workflow defect.
    """
    kept = []
    for diagnostic in diagnostics:
        if diagnostic.code in ignore:
            continue
        if diagnostic.task_ids and all(
            diagnostic.code in graph.task(task_id).ignore
            for task_id in diagnostic.task_ids
        ):
            continue
        kept.append(diagnostic)
    return kept
