"""Benchmark: kernel events per workload, the simulation's hot-path volume.

Large sweeps spend their time inside the kernel loop, so the number of
events a workload dispatches is the volume every kernel optimisation works
on.  The simulation is a pure function of the seed, so the counts are
pinned exactly, and batching must shrink the event volume of an identical
workload: every coalesced data/order multicast removes per-envelope
delivery events.  What an event costs on the host is measured by
``python -m bench`` (``bench/README.md``), not here.
"""

import pytest

from repro import BatchingConfig, ClusterConfig, ReplicatedDatabase
from repro.workloads import (
    WorkloadGenerator,
    WorkloadSpec,
    build_conflict_map,
    build_initial_data,
    build_partitioned_registry,
)

pytestmark = pytest.mark.bench

#: Kernel events to idle for (updates per site, update interval, batched)
#: on 4 sites, 8 classes, 0.5 ms executions, seed 11.
EXPECTED_EVENTS = {
    (100, 0.001, False): 5_242,
    (60, 0.0005, False): 3_157,
    (60, 0.0005, True): 1_664,
    (20, 0.001, False): 1_051,
    (20, 0.001, True): 680,
}


def run_workload(updates_per_site, update_interval, batched):
    """Kernel events the standard partitioned workload dispatches to idle."""
    spec = WorkloadSpec(
        class_count=8,
        updates_per_site=updates_per_site,
        update_interval=update_interval,
        update_duration=0.0005,
    )
    batching = BatchingConfig(window=0.002, max_batch_size=16) if batched else None
    cluster = ReplicatedDatabase(
        ClusterConfig(site_count=4, seed=11, batching=batching),
        build_partitioned_registry(spec),
        conflict_map=build_conflict_map(spec),
        initial_data=build_initial_data(spec),
    )
    WorkloadGenerator(spec).apply(cluster)
    return cluster.run_until_idle()


@pytest.mark.parametrize("row", sorted(EXPECTED_EVENTS))
def test_kernel_event_count_is_pinned(row):
    assert run_workload(*row) == EXPECTED_EVENTS[row]


def test_batching_reduces_kernel_event_volume():
    """Each batched row dispatches fewer events than its plain twin."""
    for (updates, interval, batched), events in EXPECTED_EVENTS.items():
        if batched:
            assert events < EXPECTED_EVENTS[(updates, interval, False)]
