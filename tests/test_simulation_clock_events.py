"""Unit tests for the virtual clock and the event queue."""

import pytest

from repro.errors import ClockError, SimulationError
from repro.simulation.clock import (
    VirtualClock,
    milliseconds,
    to_milliseconds,
)
from repro.simulation.events import EventQueue
from repro.simulation.kernel import SimulationKernel


class TestVirtualClock:
    def test_starts_at_zero_by_default(self):
        assert VirtualClock().now() == 0.0

    def test_starts_at_given_time(self):
        assert VirtualClock(5.0).now() == 5.0

    def test_rejects_negative_start(self):
        with pytest.raises(ClockError):
            VirtualClock(-1.0)

    @pytest.mark.parametrize("start", [float("nan"), float("inf")])
    def test_rejects_nan_and_infinite_start(self, start):
        with pytest.raises(ClockError):
            VirtualClock(start)

    def test_cannot_advance_to_nan(self):
        clock = VirtualClock(1.0)
        with pytest.raises(ClockError):
            clock.advance_to(float("nan"))
        assert clock.now() == 1.0

    def test_advances_forward(self):
        clock = VirtualClock()
        clock.advance_to(2.5)
        assert clock.now() == 2.5

    def test_advance_to_same_time_is_allowed(self):
        clock = VirtualClock(1.0)
        clock.advance_to(1.0)
        assert clock.now() == 1.0

    def test_cannot_move_backwards(self):
        clock = VirtualClock(3.0)
        with pytest.raises(ClockError):
            clock.advance_to(2.0)


class TestUnitHelpers:
    def test_milliseconds(self):
        assert milliseconds(4.0) == pytest.approx(0.004)

    def test_to_milliseconds_roundtrip(self):
        assert to_milliseconds(milliseconds(7.5)) == pytest.approx(7.5)

    def test_milliseconds_converts_to_seconds(self):
        assert milliseconds(250.0) == pytest.approx(0.25)
        assert to_milliseconds(0.004) == pytest.approx(4.0)
        assert milliseconds(0.0) == 0.0

    def test_clock_times_are_floats(self):
        clock = VirtualClock(2)
        assert type(clock.now()) is float
        clock.advance_to(3)
        assert type(clock.now()) is float


class TestEventQueue:
    def test_pop_returns_events_in_time_order(self):
        queue = EventQueue()
        fired = []
        queue.push(2.0, lambda: fired.append("late"))
        queue.push(1.0, lambda: fired.append("early"))
        first = queue.pop()
        second = queue.pop()
        assert first.time == 1.0
        assert second.time == 2.0

    def test_ties_broken_by_insertion_order(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None, label="a")
        queue.push(1.0, lambda: None, label="b")
        assert queue.pop().label == "a"
        assert queue.pop().label == "b"

    def test_priority_orders_before_sequence(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None, priority=1, label="low")
        queue.push(1.0, lambda: None, priority=0, label="high")
        assert queue.pop().label == "high"

    def test_len_counts_live_events(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert len(queue) == 2
        queue.cancel(event)
        assert len(queue) == 1

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None, label="cancelled")
        queue.push(2.0, lambda: None, label="kept")
        queue.cancel(event)
        assert queue.pop().label == "kept"

    def test_double_cancel_does_not_corrupt_count(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.cancel(event)
        queue.cancel(event)
        assert len(queue) == 0

    def test_cancel_after_pop_is_a_noop(self):
        # A holder may keep an event handle past its execution (e.g. a flush
        # timer cancelling itself from its own callback); cancelling a fired
        # event must not drive the live count negative.
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert queue.pop() is event
        queue.cancel(event)
        assert len(queue) == 1
        assert queue.pop() is not None
        queue.cancel(event)
        assert len(queue) == 0

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(3.0, lambda: None)
        queue.cancel(event)
        assert queue.peek_time() == 3.0

    def test_peek_time_empty(self):
        assert EventQueue().peek_time() is None

    def test_pop_empty_returns_none(self):
        assert EventQueue().pop() is None

    def test_rejects_non_callable(self):
        queue = EventQueue()
        with pytest.raises(SimulationError):
            queue.push(1.0, "not callable")

    def test_bool_reflects_liveness(self):
        queue = EventQueue()
        assert not queue
        queue.push(1.0, lambda: None)
        assert queue

    def test_time_ties_fall_back_to_priority_then_insertion(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None, priority=1, label="p1-first")
        queue.push(1.0, lambda: None, priority=0, label="p0-first")
        queue.push(0.5, lambda: None, priority=9, label="earliest")
        queue.push(1.0, lambda: None, priority=1, label="p1-second")
        queue.push(1.0, lambda: None, priority=0, label="p0-second")
        labels = [queue.pop().label for _ in range(5)]
        assert labels == ["earliest", "p0-first", "p0-second", "p1-first", "p1-second"]

    def test_pop_due_skips_cancelled_heads_and_respects_horizon(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        second = queue.push(1.5, lambda: None)
        queue.push(2.0, lambda: None, label="live")
        queue.cancel(first)
        queue.cancel(second)
        assert queue.pop_due(1.9) is None
        assert len(queue) == 1
        assert not first.in_queue and not second.in_queue
        assert queue.pop_due(2.0).label == "live"
        assert queue.pop_due(None) is None

    def test_peek_time_skips_several_cancelled_heads(self):
        queue = EventQueue()
        events = [queue.push(float(at), lambda: None) for at in range(1, 4)]
        queue.push(4.0, lambda: None)
        for event in events:
            queue.cancel(event)
        assert queue.peek_time() == 4.0
        assert len(queue) == 1

    def test_handle_cancelling_itself_from_its_callback(self):
        kernel = SimulationKernel()
        handle = []

        def flush():
            kernel.cancel(handle[0])

        handle.append(kernel.schedule(1.0, flush))
        kernel.schedule(2.0, lambda: None)
        kernel.run(until=1.0)
        assert kernel.pending_events == 1
        kernel.run_until_idle()
        assert kernel.pending_events == 0
        kernel.cancel(handle[0])
        assert kernel.pending_events == 0
