"""Profiling harness for the simulation-kernel hot path.

Large parameter sweeps spend most of their wall-clock time inside the
discrete-event kernel: pushing and popping heap entries, dispatching event
callbacks and moving envelopes through the transport.  This module measures
exactly that overhead, so kernel optimisations (slot-based events, the
single-traversal ``pop_due``, static event labels) land with numbers
attached instead of folklore:

* :func:`profile_event_loop` — the *floor*: a self-rescheduling timer chain
  that exercises only ``schedule`` → heap → dispatch, with an empty
  callback body.  Its ``events_per_second`` is the upper bound any
  simulation can reach on this machine.
* :func:`profile_callback_cost` — the same loop with a callback performing
  a token amount of work, isolating dispatch overhead from callback body
  cost.
* :func:`profile_workload` — the full stack: a standard replicated-database
  workload, reported as kernel events per wall-clock second.  The gap
  between this number and the floor is what the protocol layers cost per
  event.

``bench/probes.py`` reads the floor as a per-layer probe, and
``benchmarks/test_bench_kernel_hotpath.py`` pins the structural invariants
(event counts, determinism) in the tier-1 suite.  Where host time goes is
the benchmark's business: ``python -m bench`` (``bench/README.md``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

from ..core.config import ClusterConfig
from ..simulation.kernel import SimulationKernel
from ..workloads.specs import WorkloadSpec


@dataclass
class HotpathProfile:
    """Wall-clock cost of one measured hot-path run."""

    label: str
    events: int
    wall_seconds: float

    @property
    def events_per_second(self) -> float:
        """Kernel events dispatched per wall-clock second."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.events / self.wall_seconds

    @property
    def microseconds_per_event(self) -> float:
        """Mean wall-clock cost of one kernel event, in microseconds."""
        if self.events == 0:
            return 0.0
        return 1_000_000.0 * self.wall_seconds / self.events


def profile_event_loop(
    event_count: int = 200_000, *, chains: int = 1, seed: int = 0
) -> HotpathProfile:
    """Measure the bare kernel dispatch floor.

    ``chains`` self-rescheduling callbacks fire round-robin until
    ``event_count`` events have executed; the callback bodies do nothing but
    reschedule, so the measured cost is queue + clock + dispatch only.
    """
    kernel = SimulationKernel(seed=seed)
    remaining = [event_count]

    def make_tick(offset: float) -> Callable[[], None]:
        def tick() -> None:
            remaining[0] -= 1
            if remaining[0] > 0:
                kernel.schedule(offset, tick)

        return tick

    for index in range(max(1, chains)):
        # Distinct offsets keep the heap realistically interleaved.
        kernel.schedule(0.0, make_tick(0.000001 * (index + 1)))
    started = time.perf_counter()
    executed = kernel.run_until_idle()
    wall = time.perf_counter() - started
    return HotpathProfile(label="event-loop floor", events=executed, wall_seconds=wall)


def profile_callback_cost(
    event_count: int = 200_000, *, work_items: int = 8, seed: int = 0
) -> HotpathProfile:
    """Measure dispatch plus a token callback body (dict/list churn).

    The callback touches a small dict and list per event — the typical
    footprint of a protocol handler — so the difference to
    :func:`profile_event_loop` approximates the per-event cost protocol
    layers can at best add.
    """
    kernel = SimulationKernel(seed=seed)
    remaining = [event_count]
    state: dict = {}

    def tick() -> None:
        remaining[0] -= 1
        for item in range(work_items):
            state[item] = item
        state.clear()
        if remaining[0] > 0:
            kernel.schedule(0.000001, tick)

    kernel.schedule(0.0, tick)
    started = time.perf_counter()
    executed = kernel.run_until_idle()
    wall = time.perf_counter() - started
    return HotpathProfile(label="dispatch + callback", events=executed, wall_seconds=wall)


def profile_workload(
    *,
    site_count: int = 4,
    updates_per_site: int = 150,
    class_count: int = 8,
    update_interval: float = 0.001,
    execution_seconds: float = 0.0005,
    seed: int = 11,
    batching=None,
    label: Optional[str] = None,
) -> HotpathProfile:
    """Measure the full replicated-database stack in kernel events/second.

    Runs the standard partitioned workload on a fresh cluster and reports
    how many kernel events per wall-clock second the whole stack (broadcast,
    scheduler, execution, storage) sustains.  ``batching`` optionally
    enables the broadcast batching layer, whose event-count reduction shows
    up directly here.
    """
    from ..workloads.generator import WorkloadGenerator
    from ..workloads.procedures import (
        build_conflict_map,
        build_initial_data,
        build_partitioned_registry,
    )
    from ..core.cluster import ReplicatedDatabase

    spec = WorkloadSpec(
        class_count=class_count,
        updates_per_site=updates_per_site,
        update_interval=update_interval,
        update_duration=execution_seconds,
    )
    cluster = ReplicatedDatabase(
        ClusterConfig(site_count=site_count, seed=seed, batching=batching),
        build_partitioned_registry(spec),
        conflict_map=build_conflict_map(spec),
        initial_data=build_initial_data(spec),
    )
    WorkloadGenerator(spec).apply(cluster)
    started = time.perf_counter()
    executed = cluster.run_until_idle()
    wall = time.perf_counter() - started
    if label is None:
        label = "workload (batched)" if batching is not None else "workload (full stack)"
    return HotpathProfile(label=label, events=executed, wall_seconds=wall)
