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

    ``remaining`` is the volume left to move as of the channel's last
    event.  The completion threshold ``max(eps_t * bandwidth, eps_b *
    size)`` is computed once, at submit time, so a completion event
    tests each job with one compare.
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

    Each arrival or completion walks the jobs in flight once, settling
    them at the old rate, splitting off finished jobs (on a completion)
    and keeping the smallest surviving ``remaining``, which arms the next
    completion at the new rate.  Its float operations, inputs and order
    are those of separate settle, partition and minimum passes, so traces
    match the recorded reference-kernel oracle digests bit for bit.
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
        return self._rate(len(self._jobs)) if self._jobs else 0.0

    def _rate(self, count: int) -> float:
        """Per-job byte rate with ``count`` (at least one) jobs in flight."""
        share = self.bandwidth / count
        cap = self.per_job_cap
        # min(share, cap): the cap applies only when strictly smaller.
        return cap if cap is not None and cap < share else share

    def submit(self, nbytes: float, callback: Callable[[], None]) -> None:
        """Transfer ``nbytes`` and invoke ``callback`` on completion."""
        if nbytes < 0:
            raise SimulationError(f"transfer size must be non-negative, got {nbytes}")
        if self.latency > 0:
            self._sim.schedule(self.latency, self._start_job, nbytes, callback)
        else:
            self._start_job(nbytes, callback)

    def _start_job(self, nbytes: float, callback: Callable[[], None]) -> None:
        """Arrival: settle the jobs in flight, add one, re-arm the deadline."""
        sim = self._sim
        if nbytes == 0:
            # Zero-byte transfers complete immediately (after latency).
            sim.schedule(0.0, callback)
            return
        threshold = max(
            _TIME_EPSILON * self.bandwidth,
            _RELATIVE_BYTE_EPSILON * float(nbytes),
        )
        job = _TransferJob(nbytes, threshold, callback)
        jobs = self._jobs
        soonest = job.remaining
        now = sim.now
        elapsed = now - self._last_update
        if elapsed > 0 and jobs:
            progressed = self._rate(len(jobs)) * elapsed
            for other in jobs:
                remaining = other.remaining - progressed
                other.remaining = remaining
                if remaining < soonest:
                    soonest = remaining
        else:
            for other in jobs:
                if other.remaining < soonest:
                    soonest = other.remaining
        self._last_update = now
        jobs.append(job)
        if len(jobs) > self._peak_jobs:
            self._peak_jobs = len(jobs)
        if self._completion_event is not None:
            self._completion_event.cancel()
        delay = soonest / self._rate(len(jobs))
        self._completion_event = sim.schedule(max(delay, 0.0), self._complete_due)

    def _complete_due(self) -> None:
        """Completion: settle, split off finished jobs, re-arm, fire.

        When no job is under its threshold, a fallback pass finishes the
        jobs whose drain time is within four ULPs of the clock: at large
        simulated times settle round-off can leave a residue the clock
        cannot drain, and the event would re-fire at one instant forever.
        Both lists keep insertion order (the recorded callback order), and
        the next completion is armed before any callback fires, because
        callbacks resume processes synchronously and may submit again.
        """
        sim = self._sim
        jobs = self._jobs
        rate = self._rate(len(jobs))
        now = sim.now
        elapsed = now - self._last_update
        settle = elapsed > 0
        progressed = rate * elapsed
        self._last_update = now
        finished: list[_TransferJob] = []
        survivors: list[_TransferJob] = []
        soonest = math.inf
        for job in jobs:
            remaining = job.remaining
            if settle:
                remaining -= progressed
                job.remaining = remaining
            if remaining <= job.threshold:
                finished.append(job)
            else:
                survivors.append(job)
                if remaining < soonest:
                    soonest = remaining
        if not finished:
            resolution = 4.0 * math.ulp(max(now, 1.0))
            survivors = []
            soonest = math.inf
            for job in jobs:
                if job.remaining / rate <= resolution:
                    finished.append(job)
                else:
                    survivors.append(job)
                    if job.remaining < soonest:
                        soonest = job.remaining
        self._jobs = survivors
        self._completion_event = None
        if survivors:
            delay = soonest / self._rate(len(survivors))
            self._completion_event = sim.schedule(max(delay, 0.0), self._complete_due)
        if len(finished) == 1:
            job = finished[0]
            self._bytes_done += job.size
            job.callback()
        elif finished:
            # The callbacks after the first are same-instant work held in
            # this list, not in the event queue: ``cascade_depth`` makes the
            # dispatcher yield before each launch instead of starting tasks
            # synchronously, so the completions interleave as recorded.
            sim.cascade_depth += 1
            try:
                for job in finished:
                    self._bytes_done += job.size
                    job.callback()
            finally:
                sim.cascade_depth -= 1
