"""Unit tests for the discrete-event simulation core."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import SimEngine, SimulationError


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert SimEngine().now == 0.0

    def test_events_run_in_time_order(self):
        sim = SimEngine()
        seen = []
        sim.schedule(2.0, seen.append, "late")
        sim.schedule(1.0, seen.append, "early")
        sim.run()
        assert seen == ["early", "late"]

    def test_clock_advances_to_event_time(self):
        sim = SimEngine()
        sim.schedule(3.5, lambda: None)
        sim.run()
        assert sim.now == 3.5

    def test_ties_run_in_schedule_order(self):
        sim = SimEngine()
        seen = []
        for label in ("a", "b", "c"):
            sim.schedule(1.0, seen.append, label)
        sim.run()
        assert seen == ["a", "b", "c"]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            SimEngine().schedule(-0.1, lambda: None)

    def test_callbacks_can_schedule_more_events(self):
        sim = SimEngine()
        seen = []

        def chain(n):
            seen.append(n)
            if n < 3:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(0.0, chain, 0)
        sim.run()
        assert seen == [0, 1, 2, 3]
        assert sim.now == 3.0

    def test_processed_event_counter(self):
        sim = SimEngine()
        for _ in range(4):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.processed_events == 4


class TestCancellation:
    def test_cancelled_event_does_not_run(self):
        sim = SimEngine()
        seen = []
        event = sim.schedule(1.0, seen.append, "never")
        event.cancel()
        sim.run()
        assert seen == []

    def test_cancelled_events_do_not_advance_clock(self):
        sim = SimEngine()
        event = sim.schedule(9.0, lambda: None)
        sim.schedule(1.0, lambda: None)
        event.cancel()
        sim.run()
        assert sim.now == 1.0


class TestKernelHeapOrder:
    """The event heap must pop strictly in ``(time, seq)`` order.

    This property drives the flat array-backed heap through interleaved
    push / pop / cancel traffic and asserts the fire order equals the
    ``(time, insertion)`` sort of the surviving events — the determinism
    contract every trace digest in this repository depends on.
    """

    @given(
        batches=st.lists(
            st.lists(
                st.floats(
                    min_value=0.0,
                    max_value=10.0,
                    allow_nan=False,
                    allow_infinity=False,
                ),
                max_size=4,
            ),
            min_size=1,
            max_size=8,
        ),
        cancel_every=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_interleaved_push_pop_fire_order(self, batches, cancel_every):
        sim = SimEngine()
        fired: list[int] = []
        created: list[tuple[float, int]] = []  # (absolute time, label)
        cancelled: set[int] = set()
        remaining = iter(batches)

        def push(delay: float) -> None:
            label = len(created)
            event = sim.schedule(delay, fire, label)
            created.append((sim.now + delay, label))
            if cancel_every and label % (cancel_every + 1) == cancel_every:
                event.cancel()
                cancelled.add(label)

        def push_next_batch() -> None:
            # Push the next batch relative to the current clock; while no
            # live event is queued, push the batch after it too, since
            # nothing else would fire to do so.
            for batch in remaining:
                for delay in batch:
                    push(delay)
                if sim.peek_time() is not None:
                    return

        def fire(label: int) -> None:
            # Interleave: each pop pushes one more batch from inside the
            # event loop, the way executor callbacks schedule new work.
            fired.append(label)
            push_next_batch()

        sim.schedule(0.0, push_next_batch)
        sim.run()

        expected = [
            label
            for _, label in sorted(
                (time, label)
                for time, label in created
                if label not in cancelled
            )
        ]
        assert fired == expected
        assert next(remaining, None) is None

    @given(count=st.integers(min_value=2, max_value=20))
    @settings(max_examples=50, deadline=None)
    def test_same_time_events_fire_in_schedule_order(self, count):
        sim = SimEngine()
        fired: list[int] = []
        for i in range(count):
            sim.schedule(1.0, fired.append, i)
        sim.run()
        assert fired == list(range(count))
