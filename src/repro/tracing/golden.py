"""Canonical trace digests for the golden-trace equivalence suite.

The simulator is deterministic: one configuration always yields one
trace, bit for bit.  That property is what lets hot-path optimisations —
indexed dispatch, incremental ready sets, cost-model memoization — be
*proved* behaviour-preserving: record a digest of the reference trace
once, check it in, and assert every later executor reproduces it.

The digest is a SHA-256 over a canonical text serialisation of the whole
execution: every stage record, every task record, every attempt record
(in emission order, which the deterministic event loop fixes), the
makespan, and the permanently failed task ids.  Floats are rendered with
:func:`repr`, i.e. the shortest round-tripping decimal form, so digests
are stable across platforms and Python versions as long as the simulated
arithmetic itself is IEEE-754 double precision.
"""

from __future__ import annotations

import hashlib
from itertools import islice
from typing import Iterable, Iterator

from repro.tracing.trace import STAGES, Trace

# Line templates of the three record kinds; the fields are the columns
# in record-field order, ``used_gpu`` as 0/1.
_STAGE_LINE = "S|{}|{}|{}|{!r}|{!r}|{}|{}|{}|{}|{}".format
_TASK_LINE = "T|{}|{}|{!r}|{!r}|{}|{}|{}|{}|{}".format
_ATTEMPT_LINE = "A|{}|{}|{}|{!r}|{!r}|{}|{}|{}|{}|{}".format
_STAGE_VALUES = tuple(stage.value for stage in STAGES)

#: Canonical lines hashed per ``sha256.update`` call, so the payload is
#: never held as one string.
CHUNK_LINES = 4096


def _lines(trace: Trace, failed_task_ids: Iterable[int]) -> Iterator[str]:
    """The canonical lines, formatted straight from the trace's columns."""
    name = trace.names.__getitem__
    c = trace.stage_columns
    yield from map(
        _STAGE_LINE, c.task_id, map(name, c.type_id),
        map(_STAGE_VALUES.__getitem__, c.kind), c.start, c.end, c.node,
        c.core, c.level, c.used_gpu, c.attempt,
    )
    c = trace.task_columns
    yield from map(
        _TASK_LINE, c.task_id, map(name, c.type_id), c.start, c.end, c.node,
        c.core, c.level, c.used_gpu, c.attempt,
    )
    c = trace.attempt_columns
    yield from map(
        _ATTEMPT_LINE, c.task_id, map(name, c.type_id), c.attempt, c.start,
        c.end, c.node, c.core, c.level, c.used_gpu, map(name, c.kind),
    )
    yield f"M|{trace.makespan!r}"
    yield "F|" + ",".join(str(t) for t in sorted(failed_task_ids))


def trace_canonical_lines(
    trace: Trace, failed_task_ids: Iterable[int] = ()
) -> list[str]:
    """The digest's canonical serialisation, one record per line.

    Exposed separately from :func:`trace_digest` so a mismatch can be
    diffed record by record instead of comparing opaque hashes.
    """
    return list(_lines(trace, failed_task_ids))


def trace_digest(trace: Trace, failed_task_ids: Iterable[int] = ()) -> str:
    """SHA-256 hex digest of the canonical lines, newline-separated.

    The lines are hashed :data:`CHUNK_LINES` at a time, with the newline
    between two chunks hashed too, so the digest equals that of the
    whole payload without ever building it.
    """
    digest = hashlib.sha256()
    lines = _lines(trace, failed_task_ids)
    separator = b""
    while chunk := list(islice(lines, CHUNK_LINES)):
        digest.update(separator + "\n".join(chunk).encode("utf-8"))
        separator = b"\n"
    return digest.hexdigest()


def trace_fingerprint(
    trace: Trace, failed_task_ids: Iterable[int] = ()
) -> dict:
    """Digest plus human-readable context, for checked-in fixtures.

    The extra fields are redundant with the digest but turn a bare hash
    mismatch into an actionable diff ("same task count, different
    makespan" vs "different dispatch order").
    """
    failed = tuple(sorted(failed_task_ids))
    return {
        "digest": trace_digest(trace, failed),
        "num_tasks": trace.num_task_records,
        "num_stages": trace.num_stage_records,
        "num_attempts": trace.num_attempt_records,
        "makespan": repr(trace.makespan),
        "task_order": list(trace.task_columns.task_id[:64]),
        "failed_task_ids": list(failed),
    }
