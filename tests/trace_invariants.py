"""Shared trace invariants, asserted by the backend and fault tests.

Every simulated run — fault-free, fault-injected, recovered — must
produce traces satisfying the same structural properties:

* work placed on one (node, core) slot never overlaps in time;
* a retried task's attempts are time-ordered (attempt n ends before
  attempt n+1 starts);
* ``Trace.makespan`` spans exactly the successful task records;
* every on-core stage record lies within the overall recovered span.

Import :func:`assert_trace_invariants` and call it on any produced
trace; :func:`assert_result_invariants` adds the
:class:`~repro.runtime.WorkflowResult`-level contract on top.
"""

from __future__ import annotations

from repro.tracing import Stage, Trace

#: Slack for floating-point timestamp comparisons.
EPS = 1e-9

#: Records on node/core -1 (master-side markers: retry waits, failure
#: and recompute events) occupy no core.
_OFF_CORE = {Stage.FAILURE, Stage.RETRY_WAIT, Stage.RECOMPUTE}


def _assert_non_overlapping(intervals: list[tuple[float, float, str]]) -> None:
    ordered = sorted(intervals)
    for (s1, e1, what1), (s2, e2, what2) in zip(ordered, ordered[1:]):
        assert e1 <= s2 + EPS, (
            f"overlapping work on one core: {what1} [{s1}, {e1}] vs "
            f"{what2} [{s2}, {e2}]"
        )


def assert_trace_invariants(trace: Trace) -> None:
    """Assert the structural invariants every backend's trace must hold."""
    # -- per-core non-overlap of committed/attempted work -----------------
    # TaskAttempt records (fault runs) describe every occupancy interval;
    # fault-free traces only have TaskRecords.
    by_core: dict[tuple[int, int], list[tuple[float, float, str]]] = {}
    occupancy = trace.attempts if trace.attempts else trace.tasks
    for record in occupancy:
        label = f"task {record.task_id} (attempt {record.attempt})"
        by_core.setdefault((record.node, record.core), []).append(
            (record.start, record.end, label)
        )
    for intervals in by_core.values():
        _assert_non_overlapping(intervals)

    # -- attempts of one task are time-ordered ----------------------------
    attempts_of: dict[int, list] = {}
    for attempt in trace.attempts:
        attempts_of.setdefault(attempt.task_id, []).append(attempt)
    for task_id, attempts in attempts_of.items():
        attempts.sort(key=lambda a: a.attempt)
        numbers = [a.attempt for a in attempts]
        assert numbers == sorted(numbers)
        assert len(set(numbers)) == len(numbers), (
            f"task {task_id} has duplicate attempt numbers {numbers}"
        )
        for earlier, later in zip(attempts, attempts[1:]):
            assert earlier.end <= later.start + EPS, (
                f"task {task_id} attempt {later.attempt} started before "
                f"attempt {earlier.attempt} ended"
            )

    # -- makespan equals the span of successful task records --------------
    if trace.tasks:
        expected = max(t.end for t in trace.tasks) - min(
            t.start for t in trace.tasks
        )
        assert abs(trace.makespan - expected) <= EPS
        assert trace.recovered_span >= trace.makespan - EPS

    # -- every record lies within the recovered span ----------------------
    points = [(t.start, t.end) for t in trace.tasks]
    points += [(a.start, a.end) for a in trace.attempts]
    points += [(r.start, r.end) for r in trace.stages]
    if points:
        lo = min(start for start, _ in points)
        hi = max(end for _, end in points)
        for record in trace.stages:
            assert record.start >= lo - EPS and record.end <= hi + EPS
            assert record.end >= record.start
        # On-core stage records must carry a real placement.
        for record in trace.stages:
            if record.stage not in _OFF_CORE:
                assert record.node >= 0 and record.core >= 0


def assert_result_invariants(result) -> None:
    """WorkflowResult-level contract on top of the trace invariants.

    ``failed_task_ids`` is deterministically sorted ascending, free of
    duplicates, consistent with the ``failed`` flag, and disjoint from
    the committed task set (a task either produced its outputs or failed
    permanently, never both).
    """
    assert_trace_invariants(result.trace)
    failed_ids = result.failed_task_ids
    assert failed_ids == tuple(sorted(set(failed_ids))), (
        f"failed_task_ids not deterministically sorted: {failed_ids}"
    )
    assert result.failed == bool(failed_ids)
    committed = {t.task_id for t in result.trace.tasks}
    # A resurrected-then-failed task would appear in both sets only if
    # recovery bookkeeping leaked; the executor forbids it.
    overlap = committed & set(failed_ids)
    known = {t.task_id for t in result.graph.tasks()}
    assert set(failed_ids) <= known
    assert not overlap or all(
        any(
            s.task_id == task_id and s.stage is Stage.RECOMPUTE
            for s in result.trace.stages
        )
        for task_id in overlap
    ), f"tasks both committed and failed without resurrection: {overlap}"
