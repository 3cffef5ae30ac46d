"""Benchmark: simulation-kernel hot path (event queue + dispatch overhead).

Large sweeps spend their wall-clock almost entirely inside the kernel loop,
so the event queue and dispatch path are optimised (slot-based events,
tuple heap entries compared in C, the single-traversal ``pop_due``, static
event labels on the network/execution paths) and this benchmark keeps the
numbers honest.  The structural assertions (exact event counts, batching
reducing the event volume of an identical workload) gate in the tier-1
suite; the throughput numbers land in ``extra_info`` and are tracked by the
non-gating CI smoke step (``pytest -m bench``).
"""

import pytest

from repro.broadcast.batching import BatchingConfig
from repro.harness.profiling import (
    profile_callback_cost,
    profile_event_loop,
    profile_workload,
)

pytestmark = pytest.mark.bench

EVENT_COUNT = 100_000


@pytest.mark.benchmark(group="kernel-hotpath")
def test_event_loop_floor(benchmark):
    """The bare dispatch floor: schedule -> heap -> callback, empty bodies."""
    profile = benchmark.pedantic(
        lambda: profile_event_loop(event_count=EVENT_COUNT), iterations=1, rounds=3
    )
    assert profile.events == EVENT_COUNT
    assert profile.events_per_second > 0
    benchmark.extra_info["events_per_second"] = round(profile.events_per_second)
    benchmark.extra_info["us_per_event"] = round(profile.microseconds_per_event, 3)


@pytest.mark.benchmark(group="kernel-hotpath")
def test_dispatch_with_callback_body(benchmark):
    """Dispatch plus a token protocol-handler-sized callback body."""
    profile = benchmark.pedantic(
        lambda: profile_callback_cost(event_count=EVENT_COUNT), iterations=1, rounds=3
    )
    assert profile.events == EVENT_COUNT
    benchmark.extra_info["events_per_second"] = round(profile.events_per_second)


@pytest.mark.benchmark(group="kernel-hotpath")
def test_full_stack_events_per_second(benchmark, bench_record):
    """The whole replicated-database stack, in kernel events per second."""
    profile = benchmark.pedantic(
        lambda: profile_workload(updates_per_site=100), iterations=1, rounds=1
    )
    assert profile.events > 0
    benchmark.extra_info["events_per_second"] = round(profile.events_per_second)
    benchmark.extra_info["kernel_events"] = profile.events
    # The event count is virtual-time deterministic and gated both ways; the
    # throughput numbers are wall-clock, so they are recorded for the trend
    # report but never gated (machine noise must not redden the suite).
    bench_record(
        "kernel_hotpath_full_stack",
        config={"updates_per_site": 100, "seed": 11},
        metrics={
            "kernel_events": float(profile.events),
            "events_per_second": profile.events_per_second,
            "us_per_event": profile.microseconds_per_event,
        },
        seed=11,
        gates={"kernel_events": True},
    )


def test_batching_reduces_kernel_event_volume(bench_record):
    """Batching must shrink the event volume of an identical workload.

    Every coalesced data/order multicast removes per-envelope delivery
    events; the simulation is deterministic, so the counts are exact and
    this gates in the tier-1 suite.
    """
    plain = profile_workload(updates_per_site=60, update_interval=0.0005)
    batched = profile_workload(
        updates_per_site=60,
        update_interval=0.0005,
        batching=BatchingConfig(window=0.002, max_batch_size=16),
    )
    assert batched.events < plain.events
    bench_record(
        "batching_event_volume",
        config={
            "updates_per_site": 60,
            "update_interval": 0.0005,
            "window": 0.002,
            "max_batch_size": 16,
            "seed": 11,
        },
        metrics={
            "plain_events": float(plain.events),
            "batched_events": float(batched.events),
            "event_reduction_pct": 100.0 * (1.0 - batched.events / plain.events),
        },
        seed=11,
        gates={"plain_events": True, "batched_events": False},
    )
