"""Unit tests for the simulation kernel and timers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.simulation import PeriodicTimer, SimulationKernel
from repro.simulation import kernel as kernel_module


class TestScheduling:
    def test_schedule_runs_callback_at_right_time(self):
        kernel = SimulationKernel()
        times = []
        kernel.schedule(0.5, lambda: times.append(kernel.now()))
        kernel.run_until_idle()
        assert times == [0.5]

    def test_events_run_in_time_order(self):
        kernel = SimulationKernel()
        order = []
        kernel.schedule(0.3, lambda: order.append("third"))
        kernel.schedule(0.1, lambda: order.append("first"))
        kernel.schedule(0.2, lambda: order.append("second"))
        kernel.run_until_idle()
        assert order == ["first", "second", "third"]

    def test_equal_times_run_in_fifo_order(self):
        kernel = SimulationKernel()
        order = []
        for index in range(5):
            kernel.schedule(1.0, lambda index=index: order.append(index))
        kernel.run_until_idle()
        assert order == [0, 1, 2, 3, 4]

    def test_schedule_at_absolute_time(self):
        kernel = SimulationKernel()
        seen = []
        kernel.schedule_at(2.0, lambda: seen.append(kernel.now()))
        kernel.run_until_idle()
        assert seen == [2.0]

    def test_negative_delay_rejected(self):
        kernel = SimulationKernel()
        with pytest.raises(SimulationError):
            kernel.schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self):
        kernel = SimulationKernel()
        kernel.schedule(1.0, lambda: None)
        kernel.run_until_idle()
        with pytest.raises(SimulationError):
            kernel.schedule_at(0.5, lambda: None)

    def test_nan_delay_rejected(self):
        # A NaN in the heap compares false both ways and silently breaks the
        # time order of the events around it.
        kernel = SimulationKernel()
        times = []
        for delay in (0.005, 0.004, float("nan"), 0.003, 0.002, 0.001):
            try:
                kernel.schedule(delay, lambda: times.append(kernel.now()))
            except SimulationError:
                pass
        kernel.run_until_idle()
        assert times == [0.001, 0.002, 0.003, 0.004, 0.005]

    def test_schedule_at_nan_rejected(self):
        kernel = SimulationKernel()
        with pytest.raises(SimulationError):
            kernel.schedule_at(float("nan"), lambda: None)
        assert kernel.run_until_idle() == 0

    def test_nested_scheduling_from_callbacks(self):
        kernel = SimulationKernel()
        seen = []

        def outer():
            seen.append(("outer", kernel.now()))
            kernel.schedule(0.5, inner)

        def inner():
            seen.append(("inner", kernel.now()))

        kernel.schedule(1.0, outer)
        kernel.run_until_idle()
        assert seen == [("outer", 1.0), ("inner", 1.5)]

    def test_cancel_prevents_execution(self):
        kernel = SimulationKernel()
        seen = []
        event = kernel.schedule(1.0, lambda: seen.append("fired"))
        kernel.cancel(event)
        kernel.run_until_idle()
        assert seen == []


class TestTieOrder:
    @given(
        plan=st.lists(
            st.tuples(st.sampled_from([0.0, 0.001, 0.002]), st.booleans()), max_size=30
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_callbacks_fire_in_time_then_schedule_order(self, plan):
        kernel = SimulationKernel()
        fired = []
        handles = [
            kernel.schedule(delay, lambda index=index: fired.append(index))
            for index, (delay, _) in enumerate(plan)
        ]
        for handle, (_, cancelled) in zip(handles, plan):
            if cancelled:
                kernel.cancel(handle)
        kernel.run_until_idle()
        live = [(delay, index) for index, (delay, cancelled) in enumerate(plan) if not cancelled]
        assert fired == [index for _, index in sorted(live)]


class TestRunControl:
    def test_run_until_time_stops_and_advances_clock(self):
        kernel = SimulationKernel()
        seen = []
        kernel.schedule(1.0, lambda: seen.append(1.0))
        kernel.schedule(5.0, lambda: seen.append(5.0))
        kernel.run(until=2.0)
        assert seen == [1.0]
        assert kernel.now() == 2.0
        kernel.run_until_idle()
        assert seen == [1.0, 5.0]

    def test_max_events_limit(self):
        kernel = SimulationKernel()
        seen = []
        for index in range(10):
            kernel.schedule(index * 0.1 + 0.1, lambda index=index: seen.append(index))
        kernel.run(max_events=3)
        assert seen == [0, 1, 2]

    def test_run_until_idle_stops_at_the_event_limit(self, monkeypatch):
        # A callback that always reschedules itself never lets the kernel
        # idle; run_until_idle still returns after IDLE_EVENT_LIMIT events.
        monkeypatch.setattr(kernel_module, "IDLE_EVENT_LIMIT", 25)
        kernel = SimulationKernel()

        def again():
            kernel.schedule(0.001, again)

        kernel.schedule(0.0, again)
        assert kernel.run_until_idle() == 25
        assert kernel.pending_events == 1

    def test_stop_from_callback(self):
        kernel = SimulationKernel()
        seen = []

        def first():
            seen.append("first")
            kernel.stop()

        kernel.schedule(0.1, first)
        kernel.schedule(0.2, lambda: seen.append("second"))
        kernel.run_until_idle()
        assert seen == ["first"]

    def test_stop_before_until_leaves_clock_at_earlier_events(self):
        kernel = SimulationKernel()
        seen = []

        def first():
            seen.append(kernel.now())
            kernel.stop()

        kernel.schedule(1.0, first)
        kernel.schedule(2.0, lambda: seen.append(kernel.now()))
        kernel.run(until=10.0)
        assert kernel.now() == 1.0
        kernel.run(until=10.0)
        assert seen == [1.0, 2.0]
        assert kernel.now() == 10.0

    def test_max_events_before_until_leaves_clock_at_earlier_events(self):
        kernel = SimulationKernel()
        seen = []
        for at in (1.0, 2.0, 3.0):
            kernel.schedule(at, lambda: seen.append(kernel.now()))
        assert kernel.run(until=10.0, max_events=1) == 1
        assert kernel.now() == 1.0
        kernel.run(until=10.0)
        assert seen == [1.0, 2.0, 3.0]
        assert kernel.now() == 10.0

    def test_stop_with_nothing_left_before_until_still_advances(self):
        kernel = SimulationKernel()
        kernel.schedule(1.0, kernel.stop)
        kernel.schedule(20.0, lambda: None)
        kernel.run(until=10.0)
        assert kernel.now() == 10.0
        assert kernel.pending_events == 1

    def test_run_is_not_reentrant(self):
        kernel = SimulationKernel()
        errors = []

        def callback():
            try:
                kernel.run()
            except SimulationError as error:
                errors.append(error)

        kernel.schedule(0.1, callback)
        kernel.run_until_idle()
        assert len(errors) == 1

    def test_events_executed_counter(self):
        kernel = SimulationKernel()
        for _ in range(4):
            kernel.schedule(0.1, lambda: None)
        kernel.run_until_idle()
        assert kernel.events_executed == 4
        assert kernel.pending_events == 0

    def test_trace_hook_sees_events(self):
        kernel = SimulationKernel()
        labels = []
        kernel.add_trace_hook(lambda event: labels.append(event.label))
        kernel.schedule(0.1, lambda: None, label="hello")
        kernel.run_until_idle()
        assert labels == ["hello"]


class TestDeterminism:
    def test_same_seed_same_random_streams(self):
        first = SimulationKernel(seed=42)
        second = SimulationKernel(seed=42)
        stream_a = first.random.stream("jitter")
        stream_b = second.random.stream("jitter")
        assert [stream_a.random() for _ in range(20)] == [
            stream_b.random() for _ in range(20)
        ]

    def test_different_streams_are_independent(self):
        kernel = SimulationKernel(seed=42)
        one = kernel.random.stream("one")
        # Drawing from an unrelated stream must not perturb "one".
        other = kernel.random.stream("other")
        first_draws = [one.random() for _ in range(5)]
        fresh = SimulationKernel(seed=42).random.stream("one")
        for _ in range(100):
            other.random()
        assert first_draws == [fresh.random() for _ in range(5)]


class TestPeriodicTimer:
    def test_fires_repeatedly_until_stopped(self):
        kernel = SimulationKernel()
        ticks = []
        timer = PeriodicTimer(kernel, 0.1, lambda: ticks.append(kernel.now()))
        timer.start()
        kernel.run(until=0.55)
        timer.stop()
        kernel.run_until_idle()
        assert ticks == pytest.approx([0.1, 0.2, 0.3, 0.4, 0.5])

    def test_start_immediately_fires_at_zero_delay(self):
        kernel = SimulationKernel()
        ticks = []
        timer = PeriodicTimer(
            kernel, 0.1, lambda: ticks.append(kernel.now()), start_immediately=True
        )
        timer.start()
        kernel.run(until=0.25)
        assert ticks[0] == pytest.approx(0.0)

    def test_start_after_stop_counts_the_interval_from_the_restart(self):
        kernel = SimulationKernel()
        ticks = []
        timer = PeriodicTimer(kernel, 0.1, lambda: ticks.append(kernel.now()))
        timer.start()
        kernel.run(until=0.15)
        timer.stop()
        kernel.run(until=0.5)
        timer.start()
        kernel.run(until=0.65)
        timer.stop()
        assert ticks == pytest.approx([0.1, 0.6])

    def test_rejects_non_positive_interval(self):
        kernel = SimulationKernel()
        with pytest.raises(SimulationError):
            PeriodicTimer(kernel, 0.0, lambda: None)

    def test_rejects_nan_interval_at_construction(self):
        kernel = SimulationKernel()
        with pytest.raises(SimulationError):
            PeriodicTimer(kernel, float("nan"), lambda: None)

    def test_double_start_is_idempotent(self):
        kernel = SimulationKernel()
        ticks = []
        timer = PeriodicTimer(kernel, 0.1, lambda: ticks.append(1))
        timer.start()
        timer.start()
        kernel.run(until=0.15)
        assert len(ticks) == 1
