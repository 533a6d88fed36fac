"""The static workflow analyzer: run every rule over a built task graph.

:func:`analyze` is the core entry point — pure graph-plus-spec analysis,
no execution.  :func:`analyze_runtime` is the convenience wrapper used by
the ``repro lint`` CLI: it pulls the graph, cluster, backend, and GPU mode
out of a configured :class:`~repro.runtime.Runtime`.

Typical use::

    runtime = Runtime(RuntimeConfig(use_gpu=True))
    refs = workflow.build(runtime)
    report = analyze_runtime(runtime, returned=refs)
    if report.has_errors:
        print(report.render())          # WF101: host OOM predicted, ...
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.analysis.diagnostics import AnalysisReport
from repro.analysis.rules import AnalysisOptions, RuleContext, all_rules
from repro.hardware.specs import ClusterSpec
from repro.perfmodel.costmodel import CostModel
from repro.runtime.dag import TaskGraph


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
    cluster: ClusterSpec | None = None,
    *,
    use_gpu: bool = False,
    gpu_task_types: frozenset[str] | None = None,
    gpu_overflow_to_cpu: bool = False,
    backend: str | None = "simulated",
    returned: Any = None,
    fault_plan: Any = None,
    retry_policy: Any = None,
    checkpoint_policy: Any = None,
    options: AnalysisOptions | None = None,
) -> AnalysisReport:
    """Run all diagnostic rules over a built task graph.

    Parameters
    ----------
    graph:
        The workflow DAG (nothing is executed).
    cluster:
        Target cluster for the feasibility and performance rules; with
        ``None`` only the structural ``WF0xx`` rules run.
    use_gpu:
        Whether GPU execution is planned (enables the GPU feasibility
        and performance rules).
    gpu_task_types / gpu_overflow_to_cpu:
        The run's hybrid placement and GPU overflow, as in
        :class:`~repro.runtime.RuntimeConfig`.
    backend:
        Target backend name; the in-process backend skips the
        missing-cost rule.  ``Backend`` enum values are accepted.
    returned:
        The refs the application keeps as results (any nesting), so the
        dead-task rule knows terminal outputs are wanted.  ``None`` means
        unknown: final-level tasks are then given the benefit of the
        doubt.
    fault_plan / retry_policy / checkpoint_policy:
        The fault-injection plan and the recovery/checkpoint policies the
        run would use, for the ``WF3xx`` resilience rules; all default to
        ``None`` (fault-free execution, no checkpoints).
    """
    backend_name = getattr(backend, "value", backend)
    context = RuleContext(
        graph=graph,
        cluster=cluster,
        cost_model=CostModel(cluster) if cluster is not None else None,
        use_gpu=use_gpu,
        gpu_task_types=gpu_task_types,
        gpu_overflow_to_cpu=gpu_overflow_to_cpu,
        backend=backend_name,
        returned_ref_ids=None if returned is None else collect_ref_ids(returned),
        fault_plan=fault_plan,
        retry_policy=retry_policy,
        checkpoint_policy=checkpoint_policy,
        options=options or AnalysisOptions(),
    )
    report = AnalysisReport(
        cluster=cluster.name if cluster is not None else "",
        use_gpu=use_gpu,
    )
    for _code, rule_fn in all_rules():
        report.extend(rule_fn(context))
    report.diagnostics = _apply_suppressions(
        report.diagnostics, graph, context.options
    )
    return report


def _apply_suppressions(
    diagnostics: list, graph: TaskGraph, options: AnalysisOptions
) -> list:
    """Drop findings the user has explicitly accepted.

    A diagnostic is suppressed when its code is in ``options.ignore``
    (global), or when *every* task it names carries the code in its own
    ``ignore`` set (``@task(ignore=...)`` / ``submit(ignore=...)``).
    Graph-wide findings (no task ids) only honour the global set — a
    per-task annotation cannot waive a whole-workflow defect.
    """
    kept = []
    for diagnostic in diagnostics:
        if diagnostic.code in options.ignore:
            continue
        if diagnostic.task_ids and all(
            diagnostic.code in graph.task(task_id).ignore
            for task_id in diagnostic.task_ids
        ):
            continue
        kept.append(diagnostic)
    return kept


def analyze_runtime(
    runtime: Any,
    returned: Any = None,
    options: AnalysisOptions | None = None,
) -> AnalysisReport:
    """Analyze the workflow recorded in a :class:`~repro.runtime.Runtime`.

    Reads the cluster, backend, and GPU placement settings from the
    runtime's config so the diagnostics describe exactly the execution
    that ``run()`` would perform.
    """
    config = runtime.config
    return analyze(
        runtime.graph,
        config.cluster,
        use_gpu=config.use_gpu,
        gpu_task_types=config.gpu_task_types,
        gpu_overflow_to_cpu=config.gpu_overflow_to_cpu,
        backend=config.backend,
        returned=returned,
        fault_plan=getattr(config, "fault_plan", None),
        retry_policy=getattr(config, "retry_policy", None),
        checkpoint_policy=getattr(config, "checkpoint_policy", None),
        options=options,
    )
