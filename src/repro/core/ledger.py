"""Execution ledger: an append-only JSONL event log of a sweep.

The sweep cache (:mod:`repro.core.experiments.cache`) is the one record
of *what a cell computed*: the serial path and every pool worker write a
cell's record the moment it finishes, so a sweep killed mid-run resumes
by running it again.  The ledger records *what an execution did*, every
item state transition, one line per event:

``PENDING → DISPATCHED → DONE | FAILED | QUARANTINED``

``DISPATCHED`` repeats per attempt (carrying the worker id and attempt
number), ``DONE`` carries the wall-clock duration, and one ``OPEN``
marker starts the events of each engine.  Nothing reads the journal
back; it tells a person what a killed or slow sweep did.

Each event is a single ``os.write`` of one complete line to an
``O_APPEND`` descriptor followed by ``fsync``, so after any kill the
file holds every event written before it plus at most one torn final
line.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

#: Journal format version, stamped on every session-open marker.
SCHEMA = "repro-ledger/1"

#: Item states, in lifecycle order.
PENDING = "PENDING"
DISPATCHED = "DISPATCHED"
DONE = "DONE"
FAILED = "FAILED"
QUARANTINED = "QUARANTINED"

#: The session marker (no item attached) that starts one engine's events.
OPEN = "OPEN"

STATES = frozenset({PENDING, DISPATCHED, DONE, FAILED, QUARANTINED})


class ExecutionLedger:
    """Append-only event writer over one journal file.

    Single-writer by design: the pool parent (or the serial engine loop)
    is the only appender, so event order in the file is authoritative
    and no locking is needed.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fd: int | None = None
        self._seq = 0

    # ------------------------------------------------------------ lifecycle
    def __enter__(self) -> "ExecutionLedger":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def _descriptor(self) -> int:
        if self._fd is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(
                self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
        return self._fd

    # -------------------------------------------------------------- writing
    def append(self, state: str, item: str | None = None, **fields: Any) -> dict:
        """Append one event; returns the written entry.

        ``state`` is one of :data:`STATES` (``item`` required) or
        :data:`OPEN` (``item`` forbidden).  Extra ``fields`` (attempt,
        worker, duration, error, ...) are stored verbatim; ``None``
        values are dropped.
        """
        if state in STATES:
            if item is None:
                raise ValueError(f"{state} events need an item")
        elif state == OPEN:
            if item is not None:
                raise ValueError(f"{state} is a session marker, not an item event")
        else:
            raise ValueError(f"unknown ledger state {state!r}")
        entry: dict[str, Any] = {"seq": self._seq, "state": state}
        if item is not None:
            entry["item"] = item
        else:
            entry["schema"] = SCHEMA
        entry.update(
            {key: value for key, value in fields.items() if value is not None}
        )
        line = (
            json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n"
        ).encode("utf-8")
        fd = self._descriptor()
        os.write(fd, line)
        os.fsync(fd)
        self._seq += 1
        return entry
