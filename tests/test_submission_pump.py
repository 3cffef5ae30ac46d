"""The submission pump: one pending event per plan, records built on firing.

Each generator keeps its plan as columns and hands it to
:func:`repro.workloads.generator.pump`, which schedules only the first
submission; every submission schedules its successor and then submits.
These tests pin what that promises: one submission event pending at any
time, submissions at the planned times in plan order with the planned
parameters, no event left behind by a plan that starts in the past, and an
open-loop plan whose memory is its columns (at a million arrivals under
``pytest -m endurance``).
"""

import tracemalloc

import pytest

from repro import ClusterConfig, ReplicatedDatabase
from repro.chaos import build_chaos_cluster
from repro.errors import WorkloadError
from repro.simulation import SimulationKernel
from repro.workloads import (
    OpenLoopSpec,
    OpenLoopTrafficEngine,
    PoissonArrivals,
    ShardedWorkloadGenerator,
    WorkloadGenerator,
    WorkloadSpec,
    build_conflict_map,
    build_initial_data,
    build_partitioned_registry,
)

FLAT_SPEC = WorkloadSpec(class_count=4, updates_per_site=12, queries_per_site=4, query_span=3)
OPEN_SPEC = OpenLoopSpec(
    arrivals=PoissonArrivals(rate=1500.0), horizon=0.05, class_count=4, query_fraction=0.3
)


def flat_cluster(spec, seed=5):
    return ReplicatedDatabase(
        ClusterConfig(site_count=3, seed=seed),
        build_partitioned_registry(spec),
        conflict_map=build_conflict_map(spec),
        initial_data=build_initial_data(spec),
    )


def flat_workload():
    """``(cluster, apply, label, entry points)`` of the flat closed-loop workload."""
    return flat_cluster(FLAT_SPEC), WorkloadGenerator(FLAT_SPEC).apply, "workload", (
        "submit", "submit_query")


def sharded_workload():
    cluster, spec = build_chaos_cluster(7, updates_per_shard=15, queries=6)
    return cluster, ShardedWorkloadGenerator(spec).apply, "sharded-workload", (
        "submit_update", "submit_query")


def open_loop_workload():
    cluster = flat_cluster(OPEN_SPEC.base_spec())
    return cluster, OpenLoopTrafficEngine(OPEN_SPEC).apply, "open-loop", (
        "offer_update", "offer_query")


WORKLOADS = [flat_workload, sharded_workload, open_loop_workload]
IDS = ["flat", "sharded", "open-loop"]


def pending_submissions(kernel, label):
    return sum(
        1 for _, _, event in kernel._queue._heap if event.label == label and not event.cancelled
    )


@pytest.mark.parametrize("workload", WORKLOADS, ids=IDS)
def test_one_submission_is_pending_at_a_time(workload):
    cluster, apply, label, _ = workload()
    before = cluster.kernel.pending_events
    plan = apply(cluster)
    assert len(plan.times) > 1
    assert cluster.kernel.pending_events == before + 1
    assert pending_submissions(cluster.kernel, label) == 1
    seen = []
    cluster.kernel.add_trace_hook(
        lambda event: seen.append(pending_submissions(cluster.kernel, label))
    )
    cluster.run_until_idle()
    assert max(seen) <= 1
    assert pending_submissions(cluster.kernel, label) == 0


@pytest.mark.parametrize("workload", WORKLOADS, ids=IDS)
def test_submissions_fire_at_the_planned_times_in_plan_order(workload):
    cluster, apply, _, entry_points = workload()
    fired = []
    for name in entry_points:
        original = getattr(cluster, name)

        def record(*args, _original=original, **kwargs):
            fired.append((cluster.kernel.now(), args, kwargs))
            return _original(*args, **kwargs)

        setattr(cluster, name, record)
    plan = apply(cluster)
    cluster.run_until_idle()
    operations = plan.operations
    # A sharded cluster's sites by their position within their shard.
    home_index = {} if cluster.router is None else {
        site: position
        for group in cluster.replica_groups().values()
        for position, site in enumerate(group.site_ids())
    }
    assert len(fired) == len(operations) == plan.update_count + plan.query_count
    for (at, args, kwargs), operation in zip(fired, operations):
        assert at == operation.scheduled_at
        *site, procedure, parameters = args
        assert site == ([operation.site_id] if site else [])
        assert procedure == operation.procedure_name
        # An open-loop record names its site index; a sharded update goes to
        # its site's position within that site's shard.
        expected = dict(operation.parameters)
        if hasattr(operation, "site_index"):
            expected["site_index"] = operation.site_index
        elif operation.site_id in home_index:
            expected["site_index"] = home_index[operation.site_id]
        assert {**parameters, **kwargs} == expected
    assert [at for at, _, _ in fired] == list(plan.times) == sorted(plan.times)


@pytest.mark.parametrize("workload", WORKLOADS, ids=IDS)
def test_a_plan_in_the_past_schedules_nothing(workload):
    cluster, apply, _, _ = workload()
    cluster.kernel.schedule_at(1.0, lambda: None, label="advance")
    cluster.run(until=1.0)
    pending = cluster.kernel.pending_events
    with pytest.raises(WorkloadError, match="lies in the past"):
        apply(cluster)
    assert cluster.kernel.pending_events == pending


class CountingFacade:
    """A kernel and two offer methods that count what they are offered."""

    def __init__(self, seed):
        self.kernel = SimulationKernel(seed=seed)
        self.updates = self.queries = 0

    def offer_update(self, procedure_name, parameters, *, site_index):
        self.updates += 1
        return site_index

    def offer_query(self, procedure_name, parameters, *, site_index):
        self.queries += 1
        return site_index


def offer_open_loop(arrivals):
    """Apply and run ``arrivals`` offers on a stub facade under tracemalloc.

    Returns ``(plan, facade, most pending events, peak traced bytes)``.
    """
    facade = CountingFacade(seed=3)
    spec = OpenLoopSpec(
        arrivals=PoissonArrivals(rate=float(arrivals)), horizon=1.0, query_fraction=0.3
    )
    tracemalloc.start()
    try:
        plan = OpenLoopTrafficEngine(spec).apply(facade)
        most_pending = [facade.kernel.pending_events]

        def watch(event):
            most_pending[0] = max(most_pending[0], facade.kernel.pending_events)

        facade.kernel.add_trace_hook(watch)
        facade.kernel.run_until_idle()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return plan, facade, most_pending[0], peak


@pytest.mark.parametrize(
    "arrivals", [50_000, pytest.param(1_000_000, marks=pytest.mark.endurance)]
)
def test_an_open_loop_plan_parks_one_event_and_costs_its_columns(arrivals, request):
    # Traced, a million arrivals take about 100 s: only a run that selects
    # the endurance marker (CI's endurance job) pays for them.
    if arrivals > 50_000 and "endurance" not in request.config.option.markexpr:
        pytest.skip("the 1 000 000-arrival run is selected with -m endurance")
    plan, facade, most_pending, peak = offer_open_loop(arrivals)
    operations = len(plan.times)
    assert operations == pytest.approx(arrivals, rel=0.01)
    assert (facade.updates, facade.queries) == (plan.update_count, plan.query_count)
    assert plan.admitted_updates + plan.admitted_queries == operations
    assert most_pending <= 1
    assert facade.kernel.pending_events == 0
    assert peak / operations <= 64, f"{peak / operations:.1f} bytes per operation"
