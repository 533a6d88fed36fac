"""Regression tests: processor-sharing completion at large simulated times.

At simulated clocks around 1e4-1e5 seconds, the float residue that
:class:`BandwidthResource`'s settle step leaves on a job's remaining
volume can exceed the absolute completion threshold while the time
needed to drain it falls below the clock's representable resolution —
the completion event then re-fires at the same instant forever.  This
hit the Figure 9a sweep (K-means with 1000 clusters simulates hours).
The fix treats a job as done when its residue is negligible relative to
its size, or when its drain time cannot advance the clock.

The livelock never advances the clock, so no simulated-time horizon can
bound it; each test instead caps the resource's completion scans, and a
regression fails fast instead of hanging.
"""

import pytest

from repro.sim import BandwidthResource, SimEngine

#: Far above the completion scans any test here legitimately needs.
_SCAN_LIMIT = 10_000


def _capped(resource: BandwidthResource) -> BandwidthResource:
    """Make ``resource`` raise once its completion scan runs too often."""
    scan = resource._complete_due
    calls = 0

    def complete_due() -> None:
        nonlocal calls
        calls += 1
        if calls > _SCAN_LIMIT:
            raise AssertionError(
                f"{_SCAN_LIMIT} completion scans by t={resource._sim.now!r}: "
                "the completion event is livelocked"
            )
        scan()

    resource._complete_due = complete_due
    return resource


class TestLargeClockCompletion:
    @pytest.mark.parametrize("start_time", [0.0, 1e4, 1e5, 1e6])
    def test_transfer_completes_at_any_clock_offset(self, start_time):
        sim = SimEngine()
        resource = _capped(BandwidthResource(sim, 3.0e9, per_job_cap=2.0e9))
        done = []
        # Start the transfer deep into simulated time.
        sim.schedule(start_time, resource.submit, 39e6, lambda: done.append(sim.now))
        sim.run()
        assert len(done) == 1
        assert done[0] == pytest.approx(start_time + 39e6 / 2.0e9, rel=1e-6)

    def test_interleaved_jobs_at_large_clock(self):
        sim = SimEngine()
        resource = _capped(BandwidthResource(sim, 2.0e9, per_job_cap=0.25e9))
        done = []
        for i in range(16):
            sim.schedule(
                1e5 + i * 0.001, resource.submit, 1e7, lambda: done.append(sim.now)
            )
        sim.run()
        assert len(done) == 16

    def test_event_count_stays_bounded(self):
        # The livelock manifested as unbounded event processing.
        sim = SimEngine()
        resource = _capped(BandwidthResource(sim, 3.0e9))
        completions = []
        for i in range(64):
            sim.schedule(
                5e4 + i * 0.01,
                resource.submit,
                8e5,
                lambda: completions.append(None),
            )
        sim.run()
        assert len(completions) == 64
        assert sim.processed_events < 10_000

    def test_long_chain_of_transfers_terminates(self):
        # Sequential dependent transfers pushing the clock far out.
        sim = SimEngine()
        resource = _capped(BandwidthResource(sim, 1.0e9))
        count = {"n": 0}

        def next_transfer():
            count["n"] += 1
            if count["n"] < 200:
                resource.submit(5e8, next_transfer)

        resource.submit(5e8, next_transfer)
        sim.run()
        assert count["n"] == 200
