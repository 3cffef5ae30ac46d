"""Unit tests for the virtual clock and the event queue."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_cannot_advance_to_nan(self):
        clock = VirtualClock()
        clock.advance_to(1.0)
        with pytest.raises(ClockError):
            clock.advance_to(float("nan"))
        assert clock.now() == 1.0

    def test_advances_forward(self):
        clock = VirtualClock()
        clock.advance_to(2.5)
        assert clock.now() == 2.5

    def test_advance_to_same_time_is_allowed(self):
        clock = VirtualClock()
        clock.advance_to(1.0)
        clock.advance_to(1.0)
        assert clock.now() == 1.0

    def test_cannot_move_backwards(self):
        clock = VirtualClock()
        clock.advance_to(3.0)
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
        clock = VirtualClock()
        assert type(clock.now()) is float
        clock.advance_to(3)
        assert type(clock.now()) is float


#: Push / cancel / ``pop_due`` steps over four instants, so most times tie.
QUEUE_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.sampled_from([0.0, 0.5, 1.0, 2.0])),
        st.tuples(st.just("cancel"), st.integers(0, 40)),
        st.tuples(st.just("pop_due"), st.sampled_from([None, 0.0, 0.5, 1.0, 2.0])),
    ),
    max_size=40,
)


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

    @given(steps=QUEUE_STEPS)
    @settings(max_examples=200, deadline=None)
    def test_live_events_pop_in_time_then_insertion_order(self, steps):
        # Reference: the live events as (time, insertion) in a sorted list.
        queue = EventQueue()
        pushed, live = [], []
        for action, value in steps:
            if action == "push":
                live.append((value, len(pushed), queue.push(value, lambda: None)))
                pushed.append(live[-1][2])
            elif action == "cancel" and pushed:
                # Any handle: live, already fired or already cancelled.
                event = pushed[value % len(pushed)]
                queue.cancel(event)
                live = [entry for entry in live if entry[2] is not event]
            elif action == "pop_due":
                due = min(live, default=None)
                if due is not None and (value is None or due[0] <= value):
                    live.remove(due)
                    assert queue.pop_due(value) is due[2]
                else:
                    assert queue.pop_due(value) is None
            assert len(queue) == len(live)
        assert [queue.pop() for _ in live] == [entry[2] for entry in sorted(live)]
        assert queue.pop() is None and len(queue) == 0

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
