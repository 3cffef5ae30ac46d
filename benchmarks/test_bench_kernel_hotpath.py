"""Benchmark: simulation-kernel hot path (event queue + dispatch overhead).

Large sweeps spend their wall-clock almost entirely inside the kernel loop,
so the event queue and dispatch path are optimised (slot-based events,
tuple heap entries compared in C, the single-traversal ``pop_due``, static
event labels on the network/execution paths) and this benchmark keeps the
numbers honest.  The structural assertions (exact event counts, batching
reducing the event volume of an identical workload) gate in the tier-1
suite; the throughput numbers land in ``extra_info`` only — host
performance is measured by ``python -m bench`` (``bench/README.md``).
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
def test_full_stack_events_per_second(benchmark):
    """The whole replicated-database stack, in kernel events per second."""
    profile = benchmark.pedantic(
        lambda: profile_workload(updates_per_site=100), iterations=1, rounds=1
    )
    # The event count is virtual-time deterministic, so it is pinned exactly;
    # the throughput is wall-clock and only reported.
    assert profile.events == 5_242
    benchmark.extra_info["events_per_second"] = round(profile.events_per_second)
    benchmark.extra_info["kernel_events"] = profile.events


def test_batching_reduces_kernel_event_volume():
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
    assert plain.events == 3_157
    assert batched.events == 1_664
