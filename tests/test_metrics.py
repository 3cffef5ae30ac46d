"""Tests for metric collection and summary statistics."""

import math
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.metrics import (
    Gauge,
    LatencyRecorder,
    MetricsCollector,
    Summary,
    mean,
    percentile,
    stddev,
    summarize,
)
from repro.metrics.stats import summarize_runs


class TestStats:
    def test_mean_and_stddev(self):
        assert mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)
        assert mean([]) == 0.0
        assert stddev([2.0, 2.0, 2.0]) == 0.0
        assert stddev([1.0]) == 0.0
        assert stddev([0.0, 2.0]) == pytest.approx(1.0)

    def test_percentile_interpolation(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 4.0
        assert percentile(values, 0.5) == pytest.approx(2.5)
        assert percentile([5.0], 0.9) == 5.0
        assert percentile([], 0.5) == 0.0

    def test_percentile_invalid_fraction(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)

    def test_summarize(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        assert summary.count == 5
        assert summary.mean == pytest.approx(3.0)
        assert summary.minimum == 1.0
        assert summary.maximum == 5.0
        assert summary.p50 == pytest.approx(3.0)
        assert summary.p95 == pytest.approx(percentile([1.0, 2.0, 3.0, 4.0, 5.0], 0.95))
        assert summary.p90 <= summary.p95 <= summary.p99

    def test_summarize_single_value_percentiles(self):
        summary = summarize([7.0])
        assert summary.p50 == summary.p95 == summary.p99 == 7.0

    def test_summarize_empty(self):
        assert summarize([]) == Summary.empty()

    def test_summarize_accepts_a_generator(self):
        summary = summarize(value * 2.0 for value in range(1, 4))
        assert summary.count == 3
        assert summary.mean == pytest.approx(4.0)
        assert (summary.minimum, summary.maximum) == (2.0, 6.0)

    def test_stddev_uses_the_population_formula(self):
        # n, not n - 1: the sample estimator would give sqrt(2) here.
        assert stddev([1.0, 3.0]) == pytest.approx(1.0)

    def test_stddev_of_deviations_whose_square_overflows(self):
        assert stddev([0.0, 2.68e154]) == pytest.approx(1.34e154)
        assert stddev([-1e308, 1e308]) == pytest.approx(1e308)
        # The sum itself overflows: the mean and the deviation are infinite.
        assert stddev([1e308, 1e308, 2e154]) == math.inf

    def test_percentile_of_equal_subnormals_is_that_value(self):
        tiny = 5e-324
        assert percentile([tiny, tiny], 0.5) == tiny
        assert 0.0 <= percentile([0.0, tiny], 0.5) <= tiny

    def test_percentile_ignores_input_order_and_leaves_it_unsorted(self):
        values = [4.0, 1.0, 3.0, 2.0]
        assert percentile(values, 0.5) == pytest.approx(2.5)
        assert values == [4.0, 1.0, 3.0, 2.0]

    def test_percentile_rejects_negative_and_nan_fractions(self):
        with pytest.raises(ValueError):
            percentile([1.0], -0.1)
        with pytest.raises(ValueError):
            percentile([1.0], float("nan"))

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_extreme_fractions_return_the_extremes(self, values):
        assert percentile(values, 0.0) == min(values)
        assert percentile(values, 1.0) == max(values)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200))
    @example([5e-324, 5e-324])  # the halved subnormal once rounded to 0.0
    @settings(max_examples=60, deadline=None)
    def test_summary_bounds_property(self, values):
        summary = summarize(values)
        # A small absolute tolerance absorbs floating-point accumulation error
        # in the mean (e.g. three identical large values).
        tolerance = 1e-6
        assert summary.minimum <= summary.p50 <= summary.maximum
        assert summary.minimum - tolerance <= summary.mean <= summary.maximum + tolerance
        assert summary.p50 <= summary.p90 + 1e-9
        assert summary.p90 <= summary.p95 + 1e-9
        assert summary.p95 <= summary.p99 + 1e-9
        assert summary.count == len(values)

    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
            min_size=1,
            max_size=60,
        )
    )
    @example([5e-324, 0.0, -5e-324, 5e-324])
    @example([0.0, 2.68e154])
    @settings(max_examples=80, deadline=None)
    def test_summary_percentiles_equal_percentile(self, values):
        # summarize sorts once; each percentile sorts its own copy.
        for summary in (summarize(values), summarize(array("d", values))):
            assert summary.p50 == percentile(values, 0.50)
            assert summary.p90 == percentile(values, 0.90)
            assert summary.p95 == percentile(values, 0.95)
            assert summary.p99 == percentile(values, 0.99)

    @given(
        st.lists(
            st.lists(
                st.floats(min_value=-1e6, max_value=1e6, allow_subnormal=True),
                max_size=40,
            ),
            max_size=5,
        )
    )
    @example([[0.1, 0.2, 0.3], [0.3], [], [0.1]])
    @settings(max_examples=80, deadline=None)
    def test_summarizing_runs_equals_summarizing_them_one_after_another(self, runs):
        # The mean and deviation sum in the same order, so they are equal, not
        # just close.
        joined = [value for run in runs for value in run]
        summary = summarize_runs(array("d", run) for run in runs)
        assert summary == summarize(joined)
        assert [type(field) for field in summary] == [type(field) for field in summarize(joined)]


class TestCollector:
    def test_counter_increment(self):
        metrics = MetricsCollector("test")
        metrics.increment("x")
        metrics.increment("x")
        assert metrics.count("x") == 2

    def test_latency_recorder_summary(self):
        recorder = LatencyRecorder("lat")
        for value in (0.1, 0.2, 0.3):
            recorder.record(value)
        assert len(recorder) == 3
        assert summarize(recorder.samples).mean == pytest.approx(0.2)

    def test_collector_counters(self):
        metrics = MetricsCollector("test")
        metrics.increment("commits")
        metrics.increment("commits")
        assert metrics.count("commits") == 2
        assert metrics.count("unknown") == 0
        assert metrics.counters() == {"commits": 2}

    def test_collector_latencies(self):
        metrics = MetricsCollector("test")
        metrics.record_latency("commit", 0.5)
        metrics.record_latency("commit", 1.5)
        assert summarize(metrics.latency("commit").samples).mean == pytest.approx(1.0)
        assert summarize(metrics.latency("missing").samples).count == 0

    def test_snapshot_contains_both(self):
        metrics = MetricsCollector("test")
        metrics.increment("a")
        metrics.record_latency("b", 0.1)
        snapshot = metrics.snapshot()
        assert snapshot["counters"] == {"a": 1}
        assert "b" in snapshot["latencies"]

    def test_gauge_tracks_value_and_high_water(self):
        gauge = Gauge("depth")
        gauge.set(3.0)
        gauge.set(7.0)
        gauge.set(2.0)
        assert gauge.value == 2.0
        assert gauge.maximum == 7.0

    def test_collector_gauges(self):
        metrics = MetricsCollector("test")
        metrics.set_gauge("queue_depth", 4.0)
        metrics.set_gauge("queue_depth", 1.0)
        assert metrics.gauges["queue_depth"].value == 1.0
        assert metrics.gauge_max("queue_depth") == 4.0
        assert metrics.gauge_max("missing") == 0.0
        snapshot = metrics.snapshot()
        assert snapshot["gauges"]["queue_depth"] == {"value": 1.0, "max": 4.0}

    def test_reading_an_instrument_does_not_register_it(self):
        metrics = MetricsCollector("test")
        metrics.increment("a")
        before = metrics.snapshot()
        assert metrics.latency("missing").samples == []
        assert metrics.count("missing") == 0
        assert metrics.gauge_max("missing") == 0.0
        assert metrics.snapshot() == before

    def test_direct_writes_create_instruments_at_first_write(self):
        metrics = MetricsCollector("test")
        assert dict(metrics.samples) == {}
        metrics.counts["commits"] += 1
        metrics.samples["commit"].append(0.5)
        metrics.record_latency("commit", 1.5)
        assert metrics.counters() == {"commits": 1}
        assert metrics.latency("commit").samples == array("d", [0.5, 1.5])
        assert metrics.latency("other").samples == []
        assert list(metrics.samples) == ["commit"]
        assert list(metrics.snapshot()["latencies"]) == ["commit"]

    def test_samples_are_stored_as_doubles(self):
        metrics = MetricsCollector("test")
        metrics.samples["commit"].append(1)
        metrics.record_latency("commit", 0.1)
        samples = metrics.samples["commit"]
        assert isinstance(samples, array) and samples.typecode == "d"
        assert [type(value) for value in samples] == [float, float]
        assert list(samples) == [1.0, 0.1]
