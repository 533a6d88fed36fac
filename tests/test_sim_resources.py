"""Unit tests for contended simulation resources."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import BandwidthResource, CapacityResource, SimEngine, SimulationError


class TestCapacityResource:
    def test_grants_immediately_when_free(self):
        sim = SimEngine()
        res = CapacityResource(sim, 2)
        granted = []
        res.request(1, lambda: granted.append("a"))
        assert granted == ["a"]
        assert res.in_use == 1

    def test_queues_when_full_and_serves_fifo(self):
        sim = SimEngine()
        res = CapacityResource(sim, 1)
        order = []
        res.request(1, lambda: order.append("first"))
        res.request(1, lambda: order.append("second"))
        res.request(1, lambda: order.append("third"))
        assert order == ["first"]
        res.release(1)
        assert order == ["first", "second"]
        res.release(1)
        assert order == ["first", "second", "third"]

    def test_multi_slot_request_waits_for_enough(self):
        sim = SimEngine()
        res = CapacityResource(sim, 3)
        order = []
        res.request(2, lambda: order.append("two"))
        res.request(2, lambda: order.append("blocked"))
        assert order == ["two"]
        res.release(1)
        assert order == ["two", "blocked"]

    def test_head_of_line_blocking(self):
        # A large queued request blocks later small ones (FIFO fairness).
        sim = SimEngine()
        res = CapacityResource(sim, 2)
        order = []
        res.request(2, lambda: order.append("big"))
        res.request(2, lambda: order.append("big2"))
        res.request(1, lambda: order.append("small"))
        res.release(2)
        assert order == ["big", "big2"]

    def test_try_request(self):
        sim = SimEngine()
        res = CapacityResource(sim, 1)
        assert res.try_request(1) is True
        assert res.try_request(1) is False
        res.release(1)
        assert res.try_request(1) is True

    def test_over_capacity_request_rejected(self):
        sim = SimEngine()
        res = CapacityResource(sim, 2)
        with pytest.raises(SimulationError):
            res.request(3, lambda: None)

    def test_over_release_rejected(self):
        sim = SimEngine()
        res = CapacityResource(sim, 2)
        with pytest.raises(SimulationError):
            res.release(1)

    def test_peak_in_use_tracking(self):
        sim = SimEngine()
        res = CapacityResource(sim, 4)
        res.request(3, lambda: None)
        res.release(2)
        assert res.peak_in_use == 3

    def test_zero_capacity_rejected(self):
        with pytest.raises(SimulationError):
            CapacityResource(SimEngine(), 0)


class TestBandwidthResource:
    def test_single_job_runs_at_full_bandwidth(self):
        sim = SimEngine()
        res = BandwidthResource(sim, 100.0)
        done = []
        res.submit(200.0, lambda: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(2.0)]

    def test_two_equal_jobs_share_bandwidth(self):
        sim = SimEngine()
        res = BandwidthResource(sim, 100.0)
        done = []
        res.submit(100.0, lambda: done.append(sim.now))
        res.submit(100.0, lambda: done.append(sim.now))
        sim.run()
        # Each gets 50 B/s => both finish at 2s instead of 1s.
        assert done == [pytest.approx(2.0), pytest.approx(2.0)]

    def test_late_joiner_slows_in_flight_job(self):
        sim = SimEngine()
        res = BandwidthResource(sim, 100.0)
        done = {}
        res.submit(100.0, lambda: done.setdefault("a", sim.now))
        sim.schedule(0.5, res.submit, 100.0, lambda: done.setdefault("b", sim.now))
        sim.run()
        # a: 50 B alone in 0.5s, then 50 B at 50 B/s => 1.5s total.
        assert done["a"] == pytest.approx(1.5)
        # b: 50 B shared (1.0s), final 50 B alone (0.5s) => 2.0s total.
        assert done["b"] == pytest.approx(2.0)

    def test_per_job_cap_limits_single_stream(self):
        sim = SimEngine()
        res = BandwidthResource(sim, 100.0, per_job_cap=25.0)
        done = []
        res.submit(100.0, lambda: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(4.0)]

    def test_per_job_cap_allows_aggregate(self):
        sim = SimEngine()
        res = BandwidthResource(sim, 100.0, per_job_cap=25.0)
        done = []
        for _ in range(4):
            res.submit(25.0, lambda: done.append(sim.now))
        sim.run()
        # 4 jobs x 25 B/s each saturate the aggregate; all end at 1s.
        assert done == [pytest.approx(1.0)] * 4

    def test_latency_is_added_before_transfer(self):
        sim = SimEngine()
        res = BandwidthResource(sim, 100.0, latency=0.5)
        done = []
        res.submit(100.0, lambda: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(1.5)]

    def test_zero_byte_transfer_completes(self):
        sim = SimEngine()
        res = BandwidthResource(sim, 100.0)
        done = []
        res.submit(0.0, lambda: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(0.0)]

    def test_bytes_transferred_accounting(self):
        sim = SimEngine()
        res = BandwidthResource(sim, 100.0)
        res.submit(30.0, lambda: None)
        res.submit(70.0, lambda: None)
        sim.run()
        assert res.bytes_transferred == pytest.approx(100.0)

    def test_negative_size_rejected(self):
        sim = SimEngine()
        res = BandwidthResource(sim, 100.0)
        with pytest.raises(SimulationError):
            res.submit(-1.0, lambda: None)

    def test_invalid_construction(self):
        sim = SimEngine()
        with pytest.raises(SimulationError):
            BandwidthResource(sim, 0.0)
        with pytest.raises(SimulationError):
            BandwidthResource(sim, 10.0, per_job_cap=0.0)
        with pytest.raises(SimulationError):
            BandwidthResource(sim, 10.0, latency=-1.0)

    def test_many_unequal_jobs_complete_in_size_order(self):
        sim = SimEngine()
        res = BandwidthResource(sim, 60.0)
        done = []
        for size, name in ((30.0, "s"), (60.0, "m"), (90.0, "l")):
            res.submit(size, lambda name=name: done.append((name, sim.now)))
        sim.run()
        names = [n for n, _ in done]
        assert names == ["s", "m", "l"]
        # Total bytes 180 at 60 B/s => last job ends exactly at 3.0s.
        assert done[-1][1] == pytest.approx(3.0)


class _ThreePassJob:
    __slots__ = ("size", "remaining", "threshold", "callback")

    def __init__(self, nbytes, threshold, callback):
        self.size = float(nbytes)
        self.remaining = float(nbytes)
        self.threshold = threshold
        self.callback = callback


class _ThreePassChannel:
    """The processor-sharing channel as a settle pass followed by
    separate partition, fallback and minimum passes: the reference that
    :class:`BandwidthResource`'s one pass per event must match bit for
    bit."""

    def __init__(self, sim, bandwidth, per_job_cap=None, latency=0.0):
        self._sim = sim
        self.bandwidth = float(bandwidth)
        self.per_job_cap = per_job_cap
        self.latency = latency
        self._jobs = []
        self._last_update = sim.now
        self._completion_event = None
        self.bytes_transferred = 0.0
        self.peak_jobs = 0

    def current_rate(self):
        if not self._jobs:
            return 0.0
        share = self.bandwidth / len(self._jobs)
        if self.per_job_cap is not None:
            share = min(share, self.per_job_cap)
        return share

    def submit(self, nbytes, callback):
        if self.latency > 0:
            self._sim.schedule(self.latency, self._start_job, nbytes, callback)
        else:
            self._start_job(nbytes, callback)

    def _start_job(self, nbytes, callback):
        if nbytes == 0:
            self._sim.schedule(0.0, callback)
            return
        self._settle()
        threshold = max(1e-12 * self.bandwidth, 1e-9 * float(nbytes))
        self._jobs.append(_ThreePassJob(nbytes, threshold, callback))
        self.peak_jobs = max(self.peak_jobs, len(self._jobs))
        self._reschedule()

    def _settle(self):
        elapsed = self._sim.now - self._last_update
        if elapsed > 0 and self._jobs:
            progressed = self.current_rate() * elapsed
            for job in self._jobs:
                job.remaining -= progressed
        self._last_update = self._sim.now

    def _reschedule(self):
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        if not self._jobs:
            return
        rate = self.current_rate()
        soonest = min(job.remaining for job in self._jobs)
        delay = max(soonest / rate, 0.0)
        self._completion_event = self._sim.schedule(delay, self._complete_due)

    def _complete_due(self):
        self._completion_event = None
        self._settle()
        finished, survivors = [], []
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
        if len(finished) == 1:
            self.bytes_transferred += finished[0].size
            finished[0].callback()
            return
        self._sim.cascade_depth += 1
        try:
            for job in finished:
                self.bytes_transferred += job.size
                job.callback()
        finally:
            self._sim.cascade_depth -= 1


#: Far above the completion events any drawn scenario needs, so a
#: completion that re-fires at one instant forever fails the test.
_COMPLETION_LIMIT = 1_000

#: Repeated sizes make equal jobs finish together; zeros skip the channel.
_SIZES = st.sampled_from([0.0, 1.0, 800e3, 39e6, 1e7, 5e8]) | st.floats(1.0, 1e9)


@st.composite
def _channel_scenarios(draw):
    """A channel, a clock offset and 1 to 150 jobs.  A job arrives at a
    drawn time, or from inside an earlier job's completion callback."""
    bandwidth = draw(st.sampled_from([100.0, 1e9, 3e9]) | st.floats(1.0, 1e10))
    per_job_cap = draw(
        st.none()
        | st.floats(0.01, 0.9).map(lambda share: share * bandwidth)  # binds
        | st.floats(1.0, 4.0).map(lambda share: share * bandwidth)  # never binds
    )
    latency = draw(st.just(0.0) | st.floats(1e-6, 1.0))
    offset = draw(st.sampled_from([0.0, 1e4, 1e5]) | st.floats(0.0, 1e5))
    jobs = []
    for index in range(draw(st.integers(1, 150))):
        parent = draw(st.none() | st.integers(0, index - 1)) if index else None
        at = offset + draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 10.0))
        jobs.append((draw(_SIZES), parent, at))
    channel = {"bandwidth": bandwidth, "per_job_cap": per_job_cap, "latency": latency}
    return channel, jobs


def _drive(make_channel, channel_args, jobs):
    """Run ``jobs`` through one channel; return every callback's
    ``(clock hex, job, cascade depth)`` and the channel's totals."""
    sim = SimEngine()
    channel = make_channel(sim, **channel_args)
    scan = channel._complete_due
    scans = 0

    def complete_due():
        nonlocal scans
        scans += 1
        if scans > _COMPLETION_LIMIT:
            raise AssertionError(f"completion livelocked at t={sim.now!r}")
        scan()

    channel._complete_due = complete_due
    children = {}
    for index, (_size, parent, _at) in enumerate(jobs):
        children.setdefault(parent, []).append(index)
    seen = []

    def completed(index):
        seen.append((sim.now.hex(), index, sim.cascade_depth))
        for child in children.get(index, ()):
            channel.submit(jobs[child][0], lambda child=child: completed(child))

    for index in children[None]:
        size, _parent, at = jobs[index]
        sim.schedule(at, channel.submit, size, lambda index=index: completed(index))
    sim.run()
    return seen, (channel.bytes_transferred, channel.peak_jobs, sim.processed_events)


class TestOnePassMatchesThreePass:
    @settings(max_examples=100, deadline=None)
    @given(_channel_scenarios())
    def test_same_callbacks_bit_for_bit(self, scenario):
        channel_args, jobs = scenario
        expected, expected_totals = _drive(_ThreePassChannel, channel_args, jobs)
        seen, totals = _drive(BandwidthResource, channel_args, jobs)
        assert len(expected) == len(jobs)
        assert seen == expected
        assert totals == expected_totals
