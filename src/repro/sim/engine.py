"""Deterministic discrete-event simulation core.

The :class:`SimEngine` keeps a priority queue of scheduled callbacks keyed
by ``(time, sequence)``.  The sequence number makes execution order fully
deterministic for events scheduled at the same simulated instant, which in
turn makes every experiment in this repository reproducible bit-for-bit.

Heap entries are flat ``[time, seq, callback, args]`` records (a ``list``
subclass), so ``heapq`` compares them element-wise in C instead of calling
a Python ``__lt__`` per comparison; cancellation nulls the callback slot
in place.  The traces of the object-per-event kernel this layout replaced
are preserved bit-for-bit as recorded oracle digests
(``tests/golden/kernel_oracle_digests.json``) which the differential
harness (``tests/test_kernel_differential.py``) pins this engine against.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable


class SimulationError(RuntimeError):
    """Raised when the simulation is driven in an inconsistent way."""


class ScheduledEvent(list):
    """A callback scheduled at a simulated time (flat heap entry).

    The entry *is* its own heap record — ``[time, seq, callback, args]`` —
    so ``heapq`` orders entries with C-level list comparison: ``time``
    first, then the unique ``seq`` tie-break (``callback`` is never
    compared).  Instances are returned by :meth:`SimEngine.schedule` so
    callers can cancel pending events (e.g. a processor-sharing resource
    rescheduling the next completion when a new job arrives); cancelling
    nulls the callback slot, and the event loop skips null entries.
    """

    __slots__ = ()

    def cancel(self) -> None:
        """Mark the event so the event loop skips it."""
        self[2] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self[2] is None else "pending"
        return f"ScheduledEvent(t={self[0]:.6f}, seq={self[1]}, {state})"


class SimEngine:
    """A minimal, deterministic discrete-event simulator.

    Example
    -------
    >>> sim = SimEngine()
    >>> seen = []
    >>> _ = sim.schedule(2.0, seen.append, "b")
    >>> _ = sim.schedule(1.0, seen.append, "a")
    >>> sim.run()
    >>> seen
    ['a', 'b']
    >>> sim.now
    2.0
    """

    def __init__(self) -> None:
        self._queue: list = []
        self._seq = itertools.count()
        self._now = 0.0
        self._processed = 0
        #: Number of resource completion cascades currently firing
        #: callbacks with more still pending (see
        #: :meth:`~repro.sim.resources.BandwidthResource._complete_due`).
        #: While non-zero, same-instant work exists that is *not* visible
        #: in the event queue — it lives in a callback list on the Python
        #: stack — so the dispatcher must not start a task synchronously.
        #: Purely advisory: the engine itself never reads it.
        self.cascade_depth = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far (useful for diagnostics)."""
        return self._processed

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        # The entry itself carries the monotonic sequence number that
        # makes same-time orderings total and FIFO.
        event = ScheduledEvent(
            (self._now + delay, next(self._seq), callback, args)
        )
        heapq.heappush(self._queue, event)  # repro: disable=DL003
        return event

    def peek_time(self) -> float | None:
        """Time of the next pending (non-cancelled) event, ``None`` if idle.

        Used by the dispatcher to prove no other event shares the current
        instant before it starts a task synchronously.
        """
        queue = self._queue
        while queue:
            head = queue[0]
            if head[2] is None:
                heapq.heappop(queue)
                continue
            return head[0]
        return None

    def run(self) -> None:
        """Run events until the queue drains."""
        queue = self._queue
        heappop = heapq.heappop
        processed = self._processed
        while queue:
            entry = heappop(queue)
            callback = entry[2]
            if callback is None:
                continue
            self._now = entry[0]
            processed += 1
            # Write back before the callback runs: callbacks may inspect
            # the engine (or raise), and the counter must stay current.
            self._processed = processed
            callback(*entry[3])
