"""Contended resources for the discrete-event simulator.

Two resource flavours cover everything the cluster model needs:

* :class:`CapacityResource` — a pool of identical slots acquired whole
  (CPU cores, GPU devices).
* :class:`BandwidthResource` — an egalitarian processor-sharing channel
  (disk, network link, PCIe bus).  ``n`` concurrent jobs each progress at
  ``bandwidth / n`` (optionally capped per job), so contention effects such as
  the (de-)serialization bottleneck of the paper's §5.1.2 emerge naturally.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable

from repro.sim.engine import SimEngine, SimulationError

# Completion times within this many seconds of each other are treated as
# simultaneous by the processor-sharing resource, absorbing floating-point
# round-off when several equal jobs finish together.
_TIME_EPSILON = 1e-12
# A job whose remaining volume is below this fraction of its total size is
# complete for all simulation purposes; absorbs settle() round-off that
# grows with the magnitude of the simulated clock.
_RELATIVE_BYTE_EPSILON = 1e-9


class CapacityResource:
    """A pool of ``capacity`` identical slots.

    The simulated executor uses it as a counter: :meth:`try_request`
    takes slots only if they are free right now, and :meth:`release`
    returns them; its scheduler decides who waits.  :meth:`request` grants
    immediately when slots are free and otherwise queues its callback in
    a FIFO served by :meth:`release` — waiters come only from
    :meth:`request`.  A request may ask for several slots at once, but a
    request larger than the total capacity can never be satisfied and is
    rejected.
    """

    def __init__(self, sim: SimEngine, capacity: int, name: str = "") -> None:
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        self._sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: deque[tuple[int, Callable[[], None]]] = deque()
        self._peak_in_use = 0

    @property
    def in_use(self) -> int:
        """Slots currently held."""
        return self._in_use

    @property
    def available(self) -> int:
        """Slots currently free."""
        return self.capacity - self._in_use

    @property
    def peak_in_use(self) -> int:
        """High-water mark of concurrently held slots."""
        return self._peak_in_use

    def request(self, amount: int, callback: Callable[[], None]) -> None:
        """Take ``amount`` slots, invoking ``callback`` once granted."""
        if amount <= 0:
            raise SimulationError(f"request amount must be positive, got {amount}")
        if amount > self.capacity:
            raise SimulationError(
                f"request for {amount} slots exceeds capacity "
                f"{self.capacity} of resource {self.name!r}"
            )
        if not self._waiters and self._in_use + amount <= self.capacity:
            self._grant(amount, callback)
        else:
            self._waiters.append((amount, callback))

    def try_request(self, amount: int) -> bool:
        """Take ``amount`` slots immediately if free; never queues."""
        if amount <= 0:
            raise SimulationError(f"request amount must be positive, got {amount}")
        if self._waiters or self._in_use + amount > self.capacity:
            return False
        self._in_use += amount
        self._peak_in_use = max(self._peak_in_use, self._in_use)
        return True

    def release(self, amount: int) -> None:
        """Return ``amount`` slots to the pool and serve queued waiters."""
        if amount <= 0:
            raise SimulationError(f"release amount must be positive, got {amount}")
        if amount > self._in_use:
            raise SimulationError(
                f"released {amount} slots but only {self._in_use} are held "
                f"on resource {self.name!r}"
            )
        self._in_use -= amount
        if not self._waiters:
            return
        # Serving queued waiters is a completion cascade: while one grant
        # callback runs, further grants may still be pending here rather
        # than in the event queue, so flag the engine (the dispatcher
        # must not start tasks synchronously mid-cascade).
        self._sim.cascade_depth += 1
        try:
            while self._waiters:
                need, callback = self._waiters[0]
                if self._in_use + need > self.capacity:
                    break
                self._waiters.popleft()
                self._grant(need, callback)
        finally:
            self._sim.cascade_depth -= 1

    def _grant(self, amount: int, callback: Callable[[], None]) -> None:
        self._in_use += amount
        self._peak_in_use = max(self._peak_in_use, self._in_use)
        callback()


class _TransferJob:
    """A job in flight on a :class:`BandwidthResource`.

    The completion threshold ``max(eps_t * bandwidth, eps_b * size)`` is
    precomputed at submit time: recomputing it for every job on every
    completion event was the single hottest expression of a full DAG
    replay under the removed legacy rescan, and hoisting it keeps the
    per-scan work to one attribute compare per job.  The values are
    identical to what the legacy scan produced (same expression, same
    float64 inputs), so completion times — and therefore traces — still
    match the recorded reference-kernel oracle digests bit for bit.
    """

    __slots__ = ("size", "remaining", "threshold", "callback")

    def __init__(
        self, nbytes: float, threshold: float, callback: Callable[[], None]
    ) -> None:
        self.size = float(nbytes)
        self.remaining = float(nbytes)
        self.threshold = threshold
        self.callback = callback


class BandwidthResource:
    """An egalitarian processor-sharing channel.

    All in-flight jobs advance simultaneously; each receives
    ``min(per_job_cap, bandwidth / n)`` bytes per second where ``n`` is the
    number of active jobs.  When a job joins or completes, every job's
    remaining volume is settled at the old rate before the new rate applies,
    which is the textbook PS-queue construction.

    ``latency`` is a fixed per-job startup delay (seek/RTT) applied before the
    job starts consuming bandwidth.

    The settle path precomputes each job's completion threshold at submit
    time and scans with a single-pass partition.  It performs the same
    sequence of IEEE-754 float64 operations the removed legacy rescan
    did, so completion times — and therefore traces — stay bit-identical
    to the recorded reference-kernel oracle digests.
    """

    def __init__(
        self,
        sim: SimEngine,
        bandwidth: float,
        name: str = "",
        per_job_cap: float | None = None,
        latency: float = 0.0,
    ) -> None:
        if bandwidth <= 0:
            raise SimulationError(f"bandwidth must be positive, got {bandwidth}")
        if per_job_cap is not None and per_job_cap <= 0:
            raise SimulationError(f"per_job_cap must be positive, got {per_job_cap}")
        if latency < 0:
            raise SimulationError(f"latency must be non-negative, got {latency}")
        self._sim = sim
        self.bandwidth = float(bandwidth)
        self.per_job_cap = per_job_cap
        self.latency = latency
        self.name = name
        self._jobs: list[_TransferJob] = []
        self._last_update = sim.now
        self._completion_event = None
        self._bytes_done = 0.0
        self._peak_jobs = 0

    @property
    def peak_jobs(self) -> int:
        """High-water mark of concurrent transfers."""
        return self._peak_jobs

    @property
    def bytes_transferred(self) -> float:
        """Total bytes completed so far."""
        return self._bytes_done

    def current_rate(self) -> float:
        """Per-job byte rate at this instant (0 when idle)."""
        if not self._jobs:
            return 0.0
        share = self.bandwidth / len(self._jobs)
        if self.per_job_cap is not None:
            share = min(share, self.per_job_cap)
        return share

    def submit(self, nbytes: float, callback: Callable[[], None]) -> None:
        """Transfer ``nbytes`` and invoke ``callback`` on completion."""
        if nbytes < 0:
            raise SimulationError(f"transfer size must be non-negative, got {nbytes}")
        if self.latency > 0:
            self._sim.schedule(self.latency, self._start_job, nbytes, callback)
        else:
            self._start_job(nbytes, callback)

    def _start_job(self, nbytes: float, callback: Callable[[], None]) -> None:
        if nbytes == 0:
            # Zero-byte transfers complete immediately (after latency).
            self._sim.schedule(0.0, callback)
            return
        self._settle()
        threshold = max(
            _TIME_EPSILON * self.bandwidth,
            _RELATIVE_BYTE_EPSILON * float(nbytes),
        )
        self._jobs.append(_TransferJob(nbytes, threshold, callback))
        if len(self._jobs) > self._peak_jobs:
            self._peak_jobs = len(self._jobs)
        self._reschedule()

    def _settle(self) -> None:
        """Advance all in-flight jobs to the current time at the old rate."""
        elapsed = self._sim.now - self._last_update
        if elapsed > 0 and self._jobs:
            progressed = self.current_rate() * elapsed
            for job in self._jobs:
                job.remaining -= progressed
        self._last_update = self._sim.now

    def _reschedule(self) -> None:
        """(Re)arm the completion event for the job finishing soonest."""
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        jobs = self._jobs
        if not jobs:
            return
        rate = self.current_rate()
        soonest = min(job.remaining for job in jobs)
        delay = max(soonest / rate, 0.0)
        self._completion_event = self._sim.schedule(delay, self._complete_due)

    def _complete_due(self) -> None:
        """Completion scan: threshold partition, then fire callbacks.

        Decision sequence — threshold scan, ULP-resolution fallback, drop
        finished jobs *before* firing callbacks (completion callbacks
        resume processes synchronously and may re-submit).  The
        ULP fallback is a numerical guard: settle() round-off can leave
        the leader with a residue whose drain time is below the clock's
        resolution at the current simulated time — the event would
        re-fire at the same instant forever, so such jobs are treated as
        complete.  Finished jobs keep insertion order, preserving the
        callback order the recorded oracle digests were produced under.
        """
        self._completion_event = None
        self._settle()
        finished: list[_TransferJob] = []
        survivors: list[_TransferJob] = []
        for job in self._jobs:
            if job.remaining <= job.threshold:
                finished.append(job)
            else:
                survivors.append(job)
        if not finished:
            rate = self.current_rate()
            if rate > 0:
                resolution = 4.0 * math.ulp(max(self._sim.now, 1.0))
                survivors = []
                for job in self._jobs:
                    if job.remaining / rate <= resolution:
                        finished.append(job)
                    else:
                        survivors.append(job)
            if not finished:
                self._reschedule()
                return
        self._jobs = survivors
        self._reschedule()
        self._fire_completions(finished)

    def _fire_completions(self, finished: list) -> None:
        """Invoke completion callbacks in insertion order.

        When several jobs finish in one settle, the callbacks after the
        first are same-instant work that lives in this list rather than
        in the event queue; the engine's ``cascade_depth`` flags that
        window so the dispatcher (woken synchronously by, say, the first
        completion committing a task) yields before each launch instead
        of starting tasks synchronously, which lets the remaining
        completions interleave exactly like the reference kernel.
        """
        if len(finished) == 1:
            job = finished[0]
            self._bytes_done += job.size
            job.callback()
            return
        sim = self._sim
        sim.cascade_depth += 1
        try:
            for job in finished:
                self._bytes_done += job.size
                job.callback()
        finally:
            sim.cascade_depth -= 1
