"""Trace export, import, and text visualisation.

The paper collected Paraver traces from the PyCOMPSs runtime (§4.4.3);
this module is the reproduction's counterpart: traces serialise to JSON
Lines for offline analysis, round-trip losslessly, and render as an ASCII
Gantt chart — one row per (node, core), time binned into columns, each
cell showing the dominant stage.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO

from repro.tracing.trace import Stage, StageRecord, TaskAttempt, TaskRecord, Trace

#: One-character glyphs per stage for the Gantt rendering.
_STAGE_GLYPHS = {
    Stage.SCHEDULING: "s",
    Stage.DESERIALIZATION: "d",
    Stage.SERIAL_FRACTION: "F",
    Stage.PARALLEL_FRACTION: "P",
    Stage.CPU_GPU_COMM: "c",
    Stage.SERIALIZATION: "w",
    Stage.FAILURE: "x",
    Stage.RETRY_WAIT: "r",
    Stage.RECOMPUTE: "R",
    Stage.CHECKPOINT_WRITE: "k",
}


def dump_trace(trace: Trace, target: IO[str] | str | Path) -> None:
    """Write a trace as JSON Lines (one record per line).

    Stage records carry ``kind: "stage"``, task records ``kind: "task"``,
    attempt records ``kind: "attempt"``.
    """
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as handle:
            dump_trace(trace, handle)
        return
    for record in trace.stages:
        payload = {
            "kind": "stage",
            "task_id": record.task_id,
            "task_type": record.task_type,
            "stage": record.stage.value,
            "start": record.start,
            "end": record.end,
            "node": record.node,
            "core": record.core,
            "level": record.level,
            "used_gpu": record.used_gpu,
            "attempt": record.attempt,
        }
        target.write(json.dumps(payload) + "\n")
    for task in trace.tasks:
        payload = {
            "kind": "task",
            "task_id": task.task_id,
            "task_type": task.task_type,
            "start": task.start,
            "end": task.end,
            "node": task.node,
            "core": task.core,
            "level": task.level,
            "used_gpu": task.used_gpu,
            "attempt": task.attempt,
        }
        target.write(json.dumps(payload) + "\n")
    for attempt in trace.attempts:
        payload = {
            "kind": "attempt",
            "task_id": attempt.task_id,
            "task_type": attempt.task_type,
            "attempt": attempt.attempt,
            "start": attempt.start,
            "end": attempt.end,
            "node": attempt.node,
            "core": attempt.core,
            "level": attempt.level,
            "used_gpu": attempt.used_gpu,
            "outcome": attempt.outcome,
        }
        target.write(json.dumps(payload) + "\n")


def load_trace(source: IO[str] | str | Path) -> Trace:
    """Read a trace written by :func:`dump_trace`."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            return load_trace(handle)
    trace = Trace()
    for line_number, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        payload = json.loads(line)
        kind = payload.pop("kind", None)
        if kind == "stage":
            payload["stage"] = Stage(payload["stage"])
            trace.add_stage(StageRecord(**payload))
        elif kind == "task":
            trace.add_task(TaskRecord(**payload))
        elif kind == "attempt":
            trace.add_attempt(TaskAttempt(**payload))
        else:
            raise ValueError(f"line {line_number}: unknown record kind {kind!r}")
    return trace


def gantt(
    trace: Trace,
    width: int = 100,
    max_rows: int = 40,
) -> str:
    """Render the trace as an ASCII Gantt chart.

    One row per (node, core) that executed anything, columns binning the
    makespan into ``width`` slots.  Cell glyphs: d=deserialization,
    F=serial fraction, P=parallel fraction, c=CPU-GPU comm,
    w=serialization; '.' is idle.
    """
    if not trace.stages:
        return "(empty trace)"
    t0 = min(r.start for r in trace.stages)
    t1 = max(r.end for r in trace.stages)
    span = max(t1 - t0, 1e-12)
    rows: dict[tuple[int, int], list[str]] = {}
    for record in sorted(trace.stages, key=lambda r: (r.start, r.end)):
        key = (record.node, record.core)
        row = rows.setdefault(key, ["."] * width)
        glyph = _STAGE_GLYPHS.get(record.stage, "?")
        first = int((record.start - t0) / span * (width - 1))
        last = int((record.end - t0) / span * (width - 1))
        for column in range(first, last + 1):
            row[column] = glyph
    lines = [
        f"Gantt over {span:.3f}s "
        "(d=deser F=serial P=parallel c=comm w=ser .=idle)"
    ]
    for key in sorted(rows)[:max_rows]:
        node, core = key
        lines.append(f"n{node:02d}/c{core:02d} |" + "".join(rows[key]) + "|")
    hidden = len(rows) - max_rows
    if hidden > 0:
        lines.append(f"... {hidden} more cores")
    return "\n".join(lines)
