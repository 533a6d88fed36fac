"""Unit tests for the generator-based process layer."""

import pytest

from repro.sim import (
    BandwidthResource,
    Process,
    SimEngine,
    SimEvent,
    SimulationError,
    Timeout,
    Transfer,
    WaitEvent,
)


class TestProcessBasics:
    def test_timeout_advances_clock(self):
        sim = SimEngine()

        def proc():
            yield Timeout(1.5)
            yield Timeout(0.5)

        p = Process(sim, proc())
        sim.run()
        assert p.done.fired
        assert sim.now == 2.0

    def test_return_value_propagates_through_done_event(self):
        sim = SimEngine()

        def proc():
            yield Timeout(1.0)
            return "result"

        p = Process(sim, proc())
        sim.run()
        assert p.done.value == "result"

    def test_exception_fails_done_event(self):
        sim = SimEngine()

        def proc():
            yield Timeout(1.0)
            raise ValueError("boom")

        p = Process(sim, proc())
        sim.run()
        assert p.done.fired
        assert isinstance(p.done.error, ValueError)
        with pytest.raises(ValueError):
            _ = p.done.value

    def test_unknown_command_raises_inside_process(self):
        sim = SimEngine()

        def proc():
            yield "not a command"

        p = Process(sim, proc())
        sim.run()
        assert isinstance(p.done.error, SimulationError)


class TestResourceCommands:
    def test_transfer_through_bandwidth_resource(self):
        sim = SimEngine()
        disk = BandwidthResource(sim, 10.0)
        times = []

        def proc():
            yield Transfer(disk, 20.0)
            times.append(sim.now)

        Process(sim, proc())
        sim.run()
        assert times == [pytest.approx(2.0)]


class TestEventCommands:
    def test_wait_event_receives_value(self):
        sim = SimEngine()
        gate = SimEvent()
        got = []

        def waiter():
            value = yield WaitEvent(gate)
            got.append((value, sim.now))

        Process(sim, waiter())
        sim.schedule(2.0, gate.succeed, 42)
        sim.run()
        assert got == [(42, 2.0)]

    def test_wait_on_already_fired_event(self):
        sim = SimEngine()
        gate = SimEvent()
        gate.succeed("early")
        got = []

        def waiter():
            value = yield WaitEvent(gate)
            got.append(value)

        Process(sim, waiter())
        sim.run()
        assert got == ["early"]

    def test_failed_event_raises_in_waiter(self):
        sim = SimEngine()
        gate = SimEvent()
        caught = []

        def waiter():
            try:
                yield WaitEvent(gate)
            except RuntimeError as error:
                caught.append(str(error))

        Process(sim, waiter())
        sim.schedule(1.0, gate.fail, RuntimeError("bad"))
        sim.run()
        assert caught == ["bad"]

    def test_processes_wait_on_each_other(self):
        sim = SimEngine()

        def producer():
            yield Timeout(2.0)
            return "payload"

        prod = Process(sim, producer())
        got = []

        def consumer():
            value = yield WaitEvent(prod.done)
            got.append((value, sim.now))

        Process(sim, consumer())
        sim.run()
        assert got == [("payload", 2.0)]


class TestSimEvent:
    def test_double_fire_rejected(self):
        gate = SimEvent()
        gate.succeed()
        with pytest.raises(SimulationError):
            gate.succeed()

    def test_value_before_fire_rejected(self):
        with pytest.raises(SimulationError):
            _ = SimEvent().value

    def test_ok_property(self):
        gate = SimEvent()
        assert not gate.ok
        gate.succeed()
        assert gate.ok
        failed = SimEvent()
        failed.fail(RuntimeError("x"))
        assert failed.fired and not failed.ok
