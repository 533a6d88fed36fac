"""Property-based tests of the trace aggregations on random traces.

The metrics and the digest read the trace's columns.  The record-based
versions they replaced are kept below as references, and Hypothesis
checks the two agree bit for bit on traces appended through both APIs.
"""

import hashlib
import tracemalloc
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from repro.tracing import (
    DataMovementMetrics,
    ParallelTaskMetrics,
    Stage,
    StageRecord,
    TaskAttempt,
    TaskRecord,
    Trace,
    UserCodeMetrics,
    data_movement_metrics,
    decompose_overheads,
    parallel_task_metrics,
    trace_canonical_lines,
    trace_digest,
    user_code_metrics,
)
from repro.tracing import golden

USER_CODE_STAGES = (
    Stage.SERIAL_FRACTION,
    Stage.PARALLEL_FRACTION,
    Stage.CPU_GPU_COMM,
)


@st.composite
def traces(draw):
    """A random but internally consistent trace."""
    n_tasks = draw(st.integers(min_value=1, max_value=12))
    trace = Trace()
    clock = 0.0
    for task_id in range(n_tasks):
        task_type = draw(st.sampled_from(["alpha", "beta"]))
        node = draw(st.integers(min_value=0, max_value=2))
        core = draw(st.integers(min_value=0, max_value=3))
        level = draw(st.integers(min_value=0, max_value=2))
        start = clock + draw(st.floats(min_value=0.0, max_value=1.0))
        cursor = start
        stages = draw(
            st.lists(
                st.sampled_from(list(Stage)), min_size=1, max_size=5
            )
        )
        for stage in stages:
            duration = draw(st.floats(min_value=0.001, max_value=2.0))
            trace.add_stage(
                StageRecord(
                    task_id=task_id, task_type=task_type, stage=stage,
                    start=cursor, end=cursor + duration, node=node,
                    core=core, level=level, used_gpu=False,
                )
            )
            cursor += duration
        trace.add_task(
            TaskRecord(
                task_id=task_id, task_type=task_type, start=start,
                end=cursor, node=node, core=core, level=level,
                used_gpu=False,
            )
        )
        clock = cursor
    return trace


class TestAggregationProperties:
    @given(traces())
    def test_user_code_is_sum_of_its_stages(self, trace):
        metrics = user_code_metrics(trace)
        for task_type, m in metrics.items():
            assert m.user_code >= 0
            assert abs(
                m.user_code
                - (m.serial_fraction + m.parallel_fraction + m.cpu_gpu_comm)
            ) < 1e-9

    @given(traces())
    def test_per_task_averages_bounded_by_totals(self, trace):
        metrics = user_code_metrics(trace)
        for task_type, m in metrics.items():
            total = sum(
                r.duration
                for r in trace.stages
                if r.task_type == task_type and r.stage in USER_CODE_STAGES
            )
            assert m.user_code <= total + 1e-9

    @given(traces())
    def test_movement_totals_conserved(self, trace):
        metrics = data_movement_metrics(trace)
        expected = sum(
            r.duration
            for r in trace.stages
            if r.stage in (Stage.DESERIALIZATION, Stage.SERIALIZATION)
        )
        recovered = metrics.num_cores * metrics.total_per_core
        assert abs(recovered - expected) < 1e-6

    @given(traces())
    def test_level_walls_cover_member_tasks(self, trace):
        metrics = parallel_task_metrics(trace)
        for task in trace.tasks:
            assert metrics.level_wall_times[task.level] >= (
                task.duration - 1e-9
            )

    @given(traces())
    def test_decomposition_shares_form_a_partition(self, trace):
        breakdown = decompose_overheads(trace)
        total = (
            breakdown.compute_share
            + breakdown.movement_share
            + breakdown.comm_share
            + breakdown.scheduling_share
            + breakdown.idle_share
        )
        # Busy time can exceed makespan x cores only if stages overlapped
        # across tasks on one core, which this generator never produces.
        assert 0.0 <= breakdown.idle_share <= 1.0
        assert abs(total - 1.0) < 1e-6 or total >= 1.0 - 1e-6

    @given(traces())
    def test_makespan_spans_all_tasks(self, trace):
        for task in trace.tasks:
            assert task.duration <= trace.makespan + 1e-9


# ---------------------------------------------------------------- references
# The record-based aggregations and canonical lines the column readers
# replaced, kept verbatim as the definition the readers must reproduce.


def _reference_mean_per_task(records, num_tasks):
    if not records or num_tasks == 0:
        return 0.0
    return sum(r.duration for r in records) / num_tasks


def reference_user_code_metrics(trace):
    result = {}
    for task_type in dict.fromkeys(t.task_type for t in trace.tasks):
        records = [r for r in trace.stages if r.task_type == task_type]
        by_stage = {}
        for record in records:
            by_stage.setdefault(record.stage, []).append(record)
        num_tasks = len({r.task_id for r in records}) or 1
        result[task_type] = UserCodeMetrics(
            task_type=task_type,
            num_tasks=num_tasks,
            serial_fraction=_reference_mean_per_task(
                by_stage.get(Stage.SERIAL_FRACTION, []), num_tasks
            ),
            parallel_fraction=_reference_mean_per_task(
                by_stage.get(Stage.PARALLEL_FRACTION, []), num_tasks
            ),
            cpu_gpu_comm=_reference_mean_per_task(
                by_stage.get(Stage.CPU_GPU_COMM, []), num_tasks
            ),
        )
    return result


def reference_data_movement_metrics(trace):
    deser = {}
    ser = {}
    for record in trace.stages:
        core_key = (record.node, record.core)
        if record.stage is Stage.DESERIALIZATION:
            deser[core_key] = deser.get(core_key, 0.0) + record.duration
        elif record.stage is Stage.SERIALIZATION:
            ser[core_key] = ser.get(core_key, 0.0) + record.duration
    cores = set(deser) | set(ser)
    if not cores:
        return DataMovementMetrics(0, 0.0, 0.0)
    num_cores = len(cores)
    return DataMovementMetrics(
        num_cores=num_cores,
        deserialization_per_core=sum(deser.values()) / num_cores,
        serialization_per_core=sum(ser.values()) / num_cores,
    )


def reference_parallel_task_metrics(trace, parallel_task_types=None):
    starts = {}
    ends = {}
    level_types = {}
    for task in trace.tasks:
        starts[task.level] = min(starts.get(task.level, task.start), task.start)
        ends[task.level] = max(ends.get(task.level, task.end), task.end)
        level_types.setdefault(task.level, set()).add(task.task_type)
    wall = {level: ends[level] - starts[level] for level in starts}
    if parallel_task_types is None:
        parallel_levels = tuple(sorted(wall))
    else:
        parallel_levels = tuple(
            sorted(
                level
                for level, types in level_types.items()
                if types & parallel_task_types
            )
        )
    return ParallelTaskMetrics(level_wall_times=wall, parallel_levels=parallel_levels)


def reference_canonical_lines(trace, failed_task_ids=()):
    lines = [
        f"S|{r.task_id}|{r.task_type}|{r.stage.value}|{r.start!r}|{r.end!r}"
        f"|{r.node}|{r.core}|{r.level}|{int(r.used_gpu)}|{r.attempt}"
        for r in trace.stages
    ]
    lines += [
        f"T|{r.task_id}|{r.task_type}|{r.start!r}|{r.end!r}"
        f"|{r.node}|{r.core}|{r.level}|{int(r.used_gpu)}|{r.attempt}"
        for r in trace.tasks
    ]
    lines += [
        f"A|{r.task_id}|{r.task_type}|{r.attempt}|{r.start!r}|{r.end!r}"
        f"|{r.node}|{r.core}|{r.level}|{int(r.used_gpu)}|{r.outcome}"
        for r in trace.attempts
    ]
    tasks = trace.tasks
    makespan = (
        max(t.end for t in tasks) - min(t.start for t in tasks) if tasks else 0.0
    )
    lines.append(f"M|{makespan!r}")
    lines.append("F|" + ",".join(str(t) for t in sorted(failed_task_ids)))
    return lines


# ----------------------------------------------------------- mixed traces
_OFF_CORE = (Stage.FAILURE, Stage.RECOMPUTE, Stage.RETRY_WAIT)
#: Stages whose durations the metrics sum, drawn more often so that one
#: (type, stage) or (node, core) group collects several of them.
_SUMMED = USER_CODE_STAGES + (Stage.DESERIALIZATION, Stage.SERIALIZATION)
_TYPES = ["alpha", "beta"]
#: Offsets up to 1e6 s, and values whose float sums depend on the order
#: and the method of summation (0.1 + 0.2 != 0.3).
_STARTS = st.one_of(
    st.sampled_from([0.0, 0.1, 0.2, 0.1 + 0.2, 1.7, 1e6, 1e6 + 0.1]),
    st.floats(min_value=0.0, max_value=1e6),
)
_DURATIONS = st.one_of(
    st.sampled_from([0.0, 0.1, 0.2, 0.3, 1 / 3, 0.7, 1.1]),
    st.floats(min_value=0.0, max_value=50.0),
)


@st.composite
def _row(draw, kind):
    task_id = draw(st.integers(min_value=0, max_value=6))
    task_type = draw(st.sampled_from(_TYPES))
    start = draw(_STARTS)
    end = start + draw(_DURATIONS)
    node = draw(st.integers(min_value=0, max_value=1))
    core = draw(st.integers(min_value=0, max_value=2))
    level = draw(st.integers(min_value=0, max_value=3))
    used_gpu = draw(st.booleans())
    attempt = draw(st.integers(min_value=1, max_value=3))
    if kind == "stage":
        stage = draw(st.sampled_from(_SUMMED * 2 + tuple(Stage)))
        if stage in _OFF_CORE and draw(st.booleans()):
            # A master-side marker: zero duration on node and core -1.
            end, node, core = start, -1, -1
        return StageRecord(
            task_id, task_type, stage, start, end, node, core, level,
            used_gpu, attempt,
        )
    if kind == "task":
        return TaskRecord(
            task_id, task_type, start, end, node, core, level, used_gpu,
            attempt,
        )
    outcome = draw(st.sampled_from(["success", "crash", "node_failure", "gpu_oom"]))
    return TaskAttempt(
        task_id, task_type, attempt, start, end, node, core, level,
        used_gpu, outcome,
    )


_APPEND = {
    "stage": (Trace.add_stage, Trace.add_stage_row),
    "task": (Trace.add_task, Trace.add_task_row),
    "attempt": (Trace.add_attempt, Trace.add_attempt_row),
}


@st.composite
def mixed_traces(draw):
    """A trace appended row by row and record by record, interleaved,
    with the record views read between appends."""
    trace = Trace()
    for _ in range(draw(st.integers(min_value=0, max_value=40))):
        kind = draw(st.sampled_from(["stage"] * 5 + ["task", "attempt", "read"]))
        if kind == "read":
            getattr(trace, draw(st.sampled_from(["stages", "tasks", "attempts"])))
            continue
        record = draw(_row(kind))
        add_record, add_row = _APPEND[kind]
        if draw(st.booleans()):
            add_record(trace, record)
        else:
            add_row(trace, *(getattr(record, f) for f in record.__slots__))
    return trace


def _worked_trace():
    """Sums that differ from ``math.fsum`` (0.1 + 0.2 + 0.3), a type
    whose stage rows name more tasks than its task rows, a master-side
    marker and a failed attempt."""
    trace = Trace()
    for task_id, duration in enumerate((0.1, 0.2, 0.3)):
        trace.add_stage_row(task_id, "alpha", Stage.SERIAL_FRACTION, 0.0,
                            duration, 0, task_id, 0, False)
        trace.add_stage_row(task_id, "alpha", Stage.DESERIALIZATION, 0.0,
                            duration, 0, task_id, 0, False)
    trace.add_stage_row(1, "alpha", Stage.FAILURE, 0.5, 0.5, -1, -1, 0, False)
    trace.add_attempt_row(1, "alpha", 1, 0.0, 0.5, 0, 1, 0, False, "crash")
    trace.add_task_row(0, "alpha", 0.0, 0.1, 0, 0, 0, False)
    return trace


class TestColumnReadersMatchRecords:
    @settings(max_examples=150, deadline=None)
    @example(_worked_trace(), None, [2])
    @given(
        mixed_traces(),
        st.one_of(st.none(), st.sets(st.sampled_from(_TYPES + ["delta"]))),
        st.lists(st.integers(min_value=0, max_value=9), max_size=3),
    )
    def test_metrics_lines_and_digest(self, trace, parallel_types, failed):
        user_code = user_code_metrics(trace)
        expected_user_code = reference_user_code_metrics(trace)
        assert user_code == expected_user_code
        assert list(user_code) == list(expected_user_code)

        assert data_movement_metrics(trace) == reference_data_movement_metrics(
            trace
        )

        levels = parallel_task_metrics(trace, parallel_types)
        expected_levels = reference_parallel_task_metrics(trace, parallel_types)
        assert levels == expected_levels
        assert list(levels.level_wall_times) == list(
            expected_levels.level_wall_times
        )

        lines = reference_canonical_lines(trace, failed)
        assert trace_canonical_lines(trace, failed) == lines
        want = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
        # Chunks of 1, 2 and 3 lines cross every chunk boundary.
        for chunk in (1, 2, 3, golden.CHUNK_LINES):
            with mock.patch.object(golden, "CHUNK_LINES", chunk):
                assert trace_digest(trace, failed) == want

    def test_views_keep_their_identity_across_appends(self):
        trace = Trace()
        trace.add_task_row(0, "a", 0.0, 1.0, 0, 0, 0, False)
        view = trace.tasks
        del view[:]  # an in-place edit is not written back ...
        trace.add_task_row(1, "a", 1.0, 2.0, 0, 0, 0, False)
        assert trace.tasks is view
        # ... and only the rows appended since the last read are added.
        assert [t.task_id for t in view] == [1]
        assert trace.num_task_records == 2


def _simulated_result():
    from repro.algorithms import MatmulWorkflow
    from repro.data import paper_datasets
    from repro.faults import FaultPlan, RetryPolicy, TaskCrash
    from repro.runtime import Runtime, RuntimeConfig

    config = RuntimeConfig(
        fault_plan=FaultPlan(
            task_crashes=(
                TaskCrash(task_id=0, stage=Stage.SERIAL_FRACTION, attempts=(1,)),
            ),
        ),
        retry_policy=RetryPolicy(max_attempts=3, backoff_base=0.01),
    )
    runtime = Runtime(config)
    MatmulWorkflow(paper_datasets()["matmul_8gb"], grid=2).build(runtime)
    return runtime.run()


def test_metrics_and_digest_build_no_records(monkeypatch):
    result = _simulated_result()
    trace = result.trace
    assert trace.num_stage_records and trace.num_attempt_records
    built = []
    for cls in (StageRecord, TaskRecord, TaskAttempt):
        original = cls.__init__

        def counting(self, *args, _original=original, **kwargs):
            built.append(type(self).__name__)
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    trace_digest(trace, result.failed_task_ids)
    user_code_metrics(trace)
    data_movement_metrics(trace)
    parallel_task_metrics(trace, {"matmul"})
    assert built == []
    trace.attempts  # the count does see a record built from the columns
    assert built == ["TaskAttempt"] * trace.num_attempt_records


#: Traced peak of one ``trace_digest`` over 2 x 10^4 stage rows.  Building
#: every record, every line and the whole payload at once took 8.8 MB;
#: hashing a few thousand lines at a time takes about 1.0 MB.
DIGEST_PEAK_BOUND = 2_000_000


def test_digest_memory_is_bounded():
    trace = Trace()
    for task_id in range(20_000):
        start = task_id * 0.1
        trace.add_stage_row(
            task_id, "matmul", Stage.PARALLEL_FRACTION, start, start + 0.3,
            task_id % 8, task_id % 16, task_id % 5, False,
        )
    for task_id in range(0, 20_000, 6):
        trace.add_task_row(task_id, "matmul", task_id * 0.1, task_id * 0.1 + 0.5,
                           0, 0, 0, False)
    tracemalloc.start()
    try:
        trace_digest(trace)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < DIGEST_PEAK_BOUND
