"""Unit tests for contended simulation resources."""

import pytest

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
