"""Static analyzer tests: one test per diagnostic rule code, plus the
Figure 9a regression — the 'CPU GPU OOM' configuration must be flagged
*statically*, before any execution."""

import json

import pytest

from repro.algorithms import KMeansWorkflow
from repro.analysis import (
    RULES,
    AnalysisReport,
    Diagnostic,
    Severity,
    analyze,
    collect_ref_ids,
)
from repro.analysis.analyzer import _CHECKS
from repro.data import paper_datasets
from repro.hardware import HostOutOfMemoryError, cpu_only, minotauro
from repro.perfmodel import TaskCost
from repro.runtime import DataRef, Runtime, RuntimeConfig, Task, TaskGraph
from repro.runtime.runtime import Backend


def _cost(**overrides) -> TaskCost:
    base = dict(
        serial_flops=1e6,
        parallel_flops=1e9,
        parallel_items=1e6,
        arithmetic_intensity=10.0,
        input_bytes=1_000_000,
        output_bytes=1_000_000,
        host_device_bytes=2_000_000,
        gpu_memory_bytes=4_000_000,
        host_memory_bytes=4_000_000,
    )
    base.update(overrides)
    return TaskCost(**base)


def _task(task_id, inputs=(), n_outputs=1, name="t", cost=None, out_bytes=8):
    outputs = tuple(
        DataRef(size_bytes=out_bytes, name=f"{name}{task_id}.o{i}")
        for i in range(n_outputs)
    )
    return Task(
        task_id=task_id, name=name, inputs=tuple(inputs), outputs=outputs, cost=cost
    )


def _graph(*tasks) -> TaskGraph:
    graph = TaskGraph()
    for task in tasks:
        graph.add_task(task)
    return graph


def _codes(report: AnalysisReport) -> set[str]:
    return report.codes()


def _lint(graph: TaskGraph, returned=None, **config) -> AnalysisReport:
    """Analyze ``graph`` under ``RuntimeConfig(**config)``."""
    return analyze(graph, RuntimeConfig(**config), returned=returned)


def _lint_runtime(runtime: Runtime, returned=None) -> AnalysisReport:
    return analyze(runtime.graph, runtime.config, returned=returned)


class TestGraphHazards:
    def test_wf005_dead_task_interior(self):
        head = _task(0)
        tail = _task(1, inputs=head.outputs)
        dead = _task(2, name="dead")
        graph = _graph(head, tail, dead)
        report = _lint(graph)
        [finding] = [d for d in report.warnings if d.code == "WF005"]
        assert finding.task_ids == (2,)
        assert finding.task_type == "dead"

    def test_wf005_returned_outputs_are_alive(self):
        head = _task(0)
        tail = _task(1, inputs=head.outputs)
        kept = _task(2, name="kept")
        graph = _graph(head, tail, kept)
        report = _lint(graph, returned=[kept.outputs, tail.outputs])
        assert "WF005" not in _codes(report)
        # Declaring returned refs removes the final-level benefit of the
        # doubt: an unreturned terminal task is genuinely dead.
        partial = _lint(graph, returned=list(kept.outputs))
        [finding] = [d for d in partial.warnings if d.code == "WF005"]
        assert finding.task_ids == (1,)

    def test_wf005_final_level_presumed_alive_without_returned(self):
        head = _task(0)
        tail = _task(1, inputs=head.outputs)
        report = _lint(_graph(head, tail))
        assert "WF005" not in _codes(report)

    def test_wf006_missing_cost(self):
        report = _lint(_graph(_task(0, cost=None)))
        [finding] = [d for d in report.warnings if d.code == "WF006"]
        assert finding.task_ids == (0,)

    def test_wf006_skipped_for_real_backends(self):
        report = _lint(_graph(_task(0, cost=None)), backend=Backend.IN_PROCESS)
        assert "WF006" not in _codes(report)


class TestFeasibility:
    def test_wf101_host_oom(self):
        cluster = minotauro()
        big = _cost(host_memory_bytes=cluster.node.ram_bytes + 1)
        report = _lint(_graph(_task(0, cost=big)), cluster=cluster)
        [finding] = [d for d in report.errors if d.code == "WF101"]
        assert finding.severity is Severity.ERROR
        assert "GiB" in finding.message

    def test_wf102_gpu_oom(self):
        cluster = minotauro()
        big = _cost(gpu_memory_bytes=cluster.node.gpu.memory_bytes + 1)
        report = _lint(_graph(_task(0, cost=big)), cluster=cluster, use_gpu=True)
        assert "WF102" in {d.code for d in report.errors}
        # CPU-only execution never touches device memory: no finding.
        cpu_report = _lint(_graph(_task(0, cost=big)), cluster=cluster)
        assert "WF102" not in _codes(cpu_report)

    def test_wf103_gpu_less_cluster(self):
        cluster = cpu_only()
        assert not cluster.has_gpus
        report = _lint(_graph(_task(0, cost=_cost())), cluster=cluster, use_gpu=True)
        [finding] = [d for d in report.errors if d.code == "WF103"]
        assert finding.task_ids == (0,)
        # A CPU run of the same workflow is fine.
        assert "WF103" not in _codes(
            _lint(_graph(_task(0, cost=_cost())), cluster=cluster)
        )

    def _four_gpu_tasks(self, **config) -> Runtime:
        runtime = Runtime(RuntimeConfig(use_gpu=True, **config))
        for _ in range(4):
            runtime.submit("big", [], cost=_cost(gpu_memory_bytes=13 * 1024**3))
        return runtime

    def test_wf102_quiet_when_oversized_tasks_overflow_to_cpu(self):
        runtime = self._four_gpu_tasks(
            cluster=minotauro(), gpu_overflow_to_cpu=True
        )
        assert runtime.graph.task(0).cost.gpu_memory_bytes > (
            minotauro().node.gpu.memory_bytes
        )
        assert "WF102" not in _codes(_lint_runtime(runtime))
        # The executor runs the tasks that cannot fit a device on cores.
        result = runtime.run()
        assert not result.failed and result.trace.num_task_records == 4

    def test_wf103_quiet_when_no_task_type_is_placed_on_gpus(self):
        runtime = self._four_gpu_tasks(
            cluster=cpu_only(), gpu_task_types=frozenset()
        )
        assert not _lint_runtime(runtime).has_errors
        result = runtime.run()
        assert not result.failed and result.trace.num_task_records == 4

    def test_wf104_output_block_exceeds_device_memory(self):
        cluster = minotauro()
        task = _task(
            0, cost=_cost(), out_bytes=cluster.node.gpu.memory_bytes + 1
        )
        report = _lint(_graph(task), cluster=cluster, use_gpu=True)
        [finding] = [d for d in report.warnings if d.code == "WF104"]
        assert finding.task_ids == (0,)


class TestPerformanceSmells:
    def test_wf201_launch_overhead_dominates(self):
        cluster = minotauro()
        tiny = _cost(
            parallel_flops=100.0,
            parallel_items=100.0,
            host_device_bytes=0,
        )
        report = _lint(_graph(_task(0, cost=tiny)), cluster=cluster, use_gpu=True)
        assert "WF201" in {d.code for d in report.warnings}

    def test_wf201_quiet_for_big_kernels(self):
        cluster = minotauro()
        big = _cost(parallel_flops=1e13, parallel_items=1e9)
        report = _lint(_graph(_task(0, cost=big)), cluster=cluster, use_gpu=True)
        assert "WF201" not in _codes(report)

    def test_wf202_transfer_bound(self):
        cluster = minotauro()
        chatty = _cost(host_device_bytes=10**9, parallel_flops=1e6)
        report = _lint(_graph(_task(0, cost=chatty)), cluster=cluster, use_gpu=True)
        assert "WF202" in {d.code for d in report.warnings}

    def test_wf203_narrow_dag(self):
        cluster = minotauro()
        head = _task(0, cost=_cost())
        tail = _task(1, inputs=head.outputs, cost=_cost())
        report = _lint(_graph(head, tail), cluster=cluster)
        [finding] = [
            d for d in report.by_severity(Severity.INFO) if d.code == "WF203"
        ]
        assert "width 1" in finding.message

    def test_wf203_quiet_for_wide_dags(self):
        cluster = minotauro()
        tasks = [_task(i, cost=_cost()) for i in range(cluster.total_cpu_cores)]
        report = _lint(_graph(*tasks), cluster=cluster)
        assert "WF203" not in _codes(report)


class TestFig9aRegression:
    """The paper's 'CPU GPU OOM' point must be predicted without running."""

    def _fig9a_runtime(self, use_gpu: bool) -> tuple[Runtime, object]:
        workflow = KMeansWorkflow(
            paper_datasets()["kmeans_10gb"],
            grid_rows=1,  # maximum block size: the whole 10 GB in one block
            n_clusters=1000,
            iterations=3,
        )
        runtime = Runtime(RuntimeConfig(cluster=minotauro(), use_gpu=use_gpu))
        returned = workflow.build(runtime)
        return runtime, returned

    def test_host_oom_flagged_statically(self):
        runtime, returned = self._fig9a_runtime(use_gpu=False)
        report = _lint_runtime(runtime, returned=returned)
        assert report.has_errors
        [finding] = [d for d in report.errors if d.code == "WF101"]
        assert finding.task_type == "partial_sum"
        assert "CPU GPU OOM" in finding.message

    def test_gpu_mode_additionally_flags_device_oom(self):
        runtime, returned = self._fig9a_runtime(use_gpu=True)
        report = _lint_runtime(runtime, returned=returned)
        assert {"WF101", "WF102"} <= {d.code for d in report.errors}

    def test_run_refuses_dispatch(self):
        # The run raises what WF101 predicts, before the first event.
        runtime, _ = self._fig9a_runtime(use_gpu=False)
        with pytest.raises(HostOutOfMemoryError):
            runtime.run()


class TestReportAndPlumbing:
    def test_every_code_documented_and_tested_codes_match(self):
        # One check per WF row of the rule table, in code order; each
        # check's docstring opens with its code.
        checked = [check.__doc__.split()[0] for check in _CHECKS]
        assert checked == [code for code in RULES if code.startswith("WF")]
        assert list(RULES) == sorted(RULES)

    def test_severity_comes_from_the_rule_table(self):
        for code, rule in RULES.items():
            if code.startswith("WF"):
                assert Diagnostic(code=code, message="x").severity is rule.severity

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            Diagnostic(code="WF999", message="x")

    def test_json_roundtrip(self):
        cluster = minotauro()
        big = _cost(host_memory_bytes=cluster.node.ram_bytes + 1)
        report = _lint(_graph(_task(0, cost=big)), cluster=cluster)
        payload = json.loads(report.to_json())
        assert payload["cluster"] == cluster.name
        assert payload["summary"]["errors"] == 1
        assert payload["diagnostics"][0]["code"] == "WF101"

    def test_render_orders_errors_first(self):
        cluster = minotauro()
        bad = _task(0, cost=_cost(host_memory_bytes=cluster.node.ram_bytes + 1))
        lonely = _task(1, inputs=bad.outputs, cost=_cost())
        text = _lint(_graph(bad, lonely), cluster=cluster).render()
        assert text.index("WF101") < text.index("WF203")

    def test_collect_ref_ids_walks_nesting(self):
        refs = [DataRef(size_bytes=8) for _ in range(3)]

        class FakeArray:
            def blocks(self):
                return refs[1:]

        found = collect_ref_ids({"a": refs[0], "b": (FakeArray(), None)})
        assert found == {r.ref_id for r in refs}

    def test_json_output_is_byte_stable(self):
        cluster = minotauro()
        bad = _task(0, cost=_cost(host_memory_bytes=cluster.node.ram_bytes + 1))
        lonely = _task(1, inputs=bad.outputs, cost=_cost())
        graph = _graph(bad, lonely)
        first = _lint(graph, cluster=cluster).to_json()
        second = _lint(graph, cluster=cluster).to_json()
        assert first == second
        assert first.endswith("\n")
        # Ordered by code regardless of rule-emission order, and every
        # entry carries its severity.
        payload = json.loads(first)
        codes = [d["code"] for d in payload["diagnostics"]]
        assert codes == sorted(codes)
        assert all(d["severity"] for d in payload["diagnostics"])


class TestStructuralRules:
    def test_wf007_unreachable_task(self):
        head = _task(0, cost=_cost())
        tail = _task(1, inputs=head.outputs, cost=_cost())
        island = _task(2, name="island", cost=_cost())
        report = _lint(_graph(head, tail, island))
        [finding] = [d for d in report.warnings if d.code == "WF007"]
        assert finding.task_ids == (2,)
        assert finding.task_type == "island"

    def test_wf007_returned_island_is_reachable(self):
        head = _task(0, cost=_cost())
        tail = _task(1, inputs=head.outputs, cost=_cost())
        island = _task(2, name="island", cost=_cost())
        report = _lint(_graph(head, tail, island), returned=list(island.outputs))
        assert "WF007" not in _codes(report)

    def test_wf007_quiet_on_edgeless_graphs(self):
        # A bag of independent tasks (a pure map) has no "rest of the
        # DAG" to be disconnected from.
        tasks = [_task(i, cost=_cost()) for i in range(4)]
        assert "WF007" not in _codes(_lint(_graph(*tasks)))

    def test_wf008_zero_cost_task(self):
        zero = TaskCost(
            serial_flops=0,
            parallel_flops=0,
            parallel_items=0,
            arithmetic_intensity=1.0,
            input_bytes=0,
            output_bytes=0,
            host_device_bytes=0,
            gpu_memory_bytes=0,
            host_memory_bytes=0,
        )
        report = _lint(_graph(_task(0, name="noop", cost=zero)))
        [finding] = [d for d in report.warnings if d.code == "WF008"]
        assert finding.task_type == "noop"

    def test_wf008_quiet_without_cost_and_off_simulator(self):
        assert "WF008" not in _codes(_lint(_graph(_task(0, cost=None))))
        zero = TaskCost(
            serial_flops=0,
            parallel_flops=0,
            parallel_items=0,
            arithmetic_intensity=1.0,
            input_bytes=0,
            output_bytes=0,
            host_device_bytes=0,
            gpu_memory_bytes=0,
            host_memory_bytes=0,
        )
        report = _lint(_graph(_task(0, cost=zero)), backend=Backend.IN_PROCESS)
        assert "WF008" not in _codes(report)
