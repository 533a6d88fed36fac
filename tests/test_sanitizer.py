"""Dynamic trace sanitizer: clean runs pass, tampered traces are caught.

The tamper tests are the sanitizer's seeded-mutation suite: each one
takes a genuinely clean execution and corrupts its trace the way a
specific executor bug would (a consumer dispatched before its producer
committed, two records on one core, a resource overcommit, ...), then
asserts the matching check fires."""

import dataclasses

import pytest

from repro.analysis import SanitizerReport, TraceSanitizerError, sanitize_result
from repro.faults import FaultPlan, NodeFault, RetryPolicy, TaskCrash
from repro.perfmodel import TaskCost
from repro.runtime import Runtime, RuntimeConfig
from repro.runtime.runtime import Backend
from repro.tracing import Stage, Trace


def _cost() -> TaskCost:
    return TaskCost(
        serial_flops=1e9,
        parallel_flops=1e10,
        parallel_items=1e6,
        arithmetic_intensity=10.0,
        input_bytes=1_000_000,
        output_bytes=1_000_000,
        host_device_bytes=0,
        gpu_memory_bytes=0,
        host_memory_bytes=64 * 2**20,
    )


def _chain_runtime(config: RuntimeConfig | None = None) -> Runtime:
    """input -> stage0 -> stage1 -> stage2, plus a parallel side task."""
    runtime = Runtime(config or RuntimeConfig())
    block = runtime.register_input(1_000_000, name="in")
    [a] = runtime.submit("stage0", inputs=(block,), cost=_cost())
    [b] = runtime.submit("stage1", inputs=(a,), cost=_cost())
    runtime.submit("stage2", inputs=(b,), cost=_cost())
    runtime.submit("side", inputs=(block,), cost=_cost())
    return runtime


def _violations(result, check: str):
    report = sanitize_result(result)
    return [v for v in report.violations if v.check == check]


class TestCleanRuns:
    def test_clean_run_attaches_report(self):
        result = _chain_runtime().run(sanitize=True)
        assert isinstance(result.sanitizer, SanitizerReport)
        assert result.sanitizer.ok
        assert "clean" in result.sanitizer.render()
        assert result.sanitizer.events_checked > 0

    def test_unsanitized_run_has_no_report(self):
        assert _chain_runtime().run().sanitizer is None

    def test_faulted_run_sanitizes_clean(self):
        config = RuntimeConfig(
            fault_plan=FaultPlan(
                task_crashes=(
                    TaskCrash(
                        task_id=1, stage=Stage.SERIAL_FRACTION, attempts=(1,)
                    ),
                ),
                node_faults=(NodeFault(node=1, at_time=0.05),),
            ),
            retry_policy=RetryPolicy(max_attempts=3, backoff_base=0.01),
        )
        result = _chain_runtime(config).run(sanitize=True)
        assert result.sanitizer.ok

    def test_attempt_check_groups_attempts_in_one_pass(self, monkeypatch):
        # Looking each task's attempts up with ``Trace.attempts_of`` scans
        # every attempt once per task: quadratic on a large faulted run.
        config = RuntimeConfig(
            fault_plan=FaultPlan(
                task_crashes=(
                    TaskCrash(
                        task_id=1, stage=Stage.SERIAL_FRACTION, attempts=(1,)
                    ),
                ),
            ),
            retry_policy=RetryPolicy(max_attempts=3, backoff_base=0.01),
        )
        result = _chain_runtime(config).run()
        assert result.trace.num_attempt_records > 1
        calls = []
        original = Trace.attempts_of

        def counting(self, task_id):
            calls.append(task_id)
            return original(self, task_id)

        monkeypatch.setattr(Trace, "attempts_of", counting)
        assert sanitize_result(result).ok
        assert calls == []

    def test_non_simulated_backend_refused(self):
        runtime = Runtime(RuntimeConfig(backend=Backend.IN_PROCESS))
        with pytest.raises(ValueError, match="simulated backend"):
            runtime.run(sanitize=True)


class TestTamperedTraces:
    """Each tamper models one executor bug class."""

    def test_consumer_before_producer(self):
        result = _chain_runtime().run()
        trace = result.trace
        # stage1 committed before stage0 ever ended: a dependency leak.
        victim = next(t for t in trace.tasks if t.task_type == "stage1")
        index = trace.tasks.index(victim)
        trace.tasks[index] = dataclasses.replace(victim, start=0.0, end=0.0)
        found = _violations(result, "happens_before")
        assert found
        assert any("before any commit" in v.message for v in found)

    def test_missing_producer_record(self):
        result = _chain_runtime().run()
        trace = result.trace
        trace.tasks[:] = [t for t in trace.tasks if t.task_type != "stage0"]
        assert _violations(result, "happens_before")
        # ... and the dropped task is now neither committed nor failed.
        assert _violations(result, "attempt_machine")

    def test_double_occupancy_of_one_core(self):
        result = _chain_runtime().run()
        trace = result.trace
        first = trace.tasks[0]
        clone = dataclasses.replace(first, task_id=trace.tasks[1].task_id)
        trace.tasks.append(clone)
        found = _violations(result, "conservation")
        assert any("at once" in v.message for v in found)

    def test_ram_overcommit(self):
        # A task whose cost demands more RAM than the node has, forged
        # into the trace without the executor's admission control.
        runtime = _chain_runtime()
        result = runtime.run()
        huge = dataclasses.replace(
            _cost(), host_memory_bytes=2 * runtime.config.cluster.node.ram_bytes
        )
        runtime.graph.task(0).cost = huge
        found = _violations(result, "conservation")
        assert any("host RAM" in v.message for v in found)

    def test_placement_outside_cluster(self):
        result = _chain_runtime().run()
        trace = result.trace
        trace.tasks[0] = dataclasses.replace(trace.tasks[0], node=99)
        found = _violations(result, "placement")
        assert any("outside the cluster" in v.message for v in found)

    def test_gpu_use_without_gpu_config(self):
        result = _chain_runtime().run()
        trace = result.trace
        trace.tasks[0] = dataclasses.replace(trace.tasks[0], used_gpu=True)
        found = _violations(result, "placement")
        assert any("forbids GPU" in v.message for v in found)

    def test_commit_straddles_node_death(self):
        config = RuntimeConfig(
            fault_plan=FaultPlan(node_faults=(NodeFault(node=0, at_time=0.5),)),
            retry_policy=RetryPolicy(max_attempts=3, backoff_base=0.01),
        )
        result = _chain_runtime(config).run()
        trace = result.trace
        record = trace.tasks[0]
        trace.tasks[0] = dataclasses.replace(
            record, node=0, start=0.1, end=2.0
        )
        found = _violations(result, "placement")
        assert any("planned death" in v.message for v in found)

    def test_attempt_numbers_must_be_contiguous(self):
        config = RuntimeConfig(
            fault_plan=FaultPlan(
                task_crashes=(
                    TaskCrash(
                        task_id=0, stage=Stage.SERIAL_FRACTION, attempts=(1,)
                    ),
                ),
            ),
            retry_policy=RetryPolicy(max_attempts=3, backoff_base=0.01),
        )
        result = _chain_runtime(config).run()
        trace = result.trace
        assert trace.attempts  # the crash produced attempt records
        victim = next(a for a in trace.attempts if a.attempt == 2)
        index = trace.attempts.index(victim)
        trace.attempts[index] = dataclasses.replace(victim, attempt=5)
        found = _violations(result, "attempt_machine")
        assert any("not contiguous" in v.message for v in found)

    def test_double_commit_without_resurrection(self):
        config = RuntimeConfig(
            fault_plan=FaultPlan(
                task_crashes=(
                    TaskCrash(
                        task_id=0, stage=Stage.SERIAL_FRACTION, attempts=(1,)
                    ),
                ),
            ),
            retry_policy=RetryPolicy(max_attempts=3, backoff_base=0.01),
        )
        result = _chain_runtime(config).run()
        trace = result.trace
        winner = next(a for a in trace.attempts if a.ok)
        trace.attempts.append(
            dataclasses.replace(winner, attempt=winner.attempt + 1)
        )
        found = _violations(result, "attempt_machine")
        assert any("resurrection" in v.message for v in found)

    @pytest.mark.parametrize("outcome", ["crash", "speculation_cancelled"])
    def test_overlapping_attempts(self, outcome):
        # Attempt 2 starts before attempt 1 ends: two attempts of one task
        # in flight at once, whatever outcome the earlier one records.
        config = RuntimeConfig(
            fault_plan=FaultPlan(
                task_crashes=(
                    TaskCrash(
                        task_id=0, stage=Stage.SERIAL_FRACTION, attempts=(1,)
                    ),
                ),
            ),
            retry_policy=RetryPolicy(max_attempts=3, backoff_base=0.01),
        )
        result = _chain_runtime(config).run()
        trace = result.trace
        first, second = trace.attempts_of(0)
        index = trace.attempts.index(first)
        trace.attempts[index] = dataclasses.replace(
            first, outcome=outcome, end=second.start + 1.0
        )
        found = _violations(result, "attempt_machine")
        assert any("before attempt 1 ended" in v.message for v in found)

    def test_backwards_record(self):
        result = _chain_runtime().run()
        trace = result.trace
        record = trace.tasks[0]
        # TaskRecord has no constructor guard, so a buggy executor could
        # emit this; the sanitizer must still catch it.
        trace.tasks[0] = dataclasses.replace(
            record, start=record.end + 1.0, end=record.end
        )
        assert _violations(result, "monotonicity")

    def test_run_raises_on_dirty_trace(self):
        result = _chain_runtime().run()
        trace = result.trace
        trace.tasks[0] = dataclasses.replace(trace.tasks[0], node=99)
        report = sanitize_result(result)
        error = TraceSanitizerError(report)
        assert "placement" in str(error)
        assert error.report is report
