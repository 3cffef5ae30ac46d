"""Tests for coordinator/sequencer failover in the cluster facade.

The site that establishes the definitive total order can crash; the cluster
promotes the lowest-ranked site no quorum condemns, which confirms every
message the old coordinator left unordered, and processing continues.  A
recovering site adopts the current coordinator, catches up, and — under the
Ω rule — takes the role back once it is live again.

One governor decides every promotion, fed either by the crash manager's
ground truth (oracle mode, a perfect detector) or by heartbeat detectors;
every test here runs against both inputs.
"""

import pytest

from repro import ClusterConfig, ProcedureRegistry, ReplicatedDatabase
from repro.core.config import BROADCAST_CONSERVATIVE, BROADCAST_OPTIMISTIC
from repro.failure import CrashSchedule, FailureDetectionConfig
from repro.observability import TransactionTracer
from repro.verification import check_one_copy_serializability


def build_registry():
    registry = ProcedureRegistry()

    @registry.procedure("add", conflict_class=lambda p: f"C{p['slot'] % 3}", duration=0.002)
    def add(ctx, params):
        key = f"slot:{params['slot']}"
        ctx.write(key, ctx.read(key) + 1)

    return registry


@pytest.fixture(params=[None, FailureDetectionConfig()], ids=["oracle", "detectors"])
def failure_detection(request):
    return request.param


def build_cluster(broadcast, failure_detection, seed=3, tracer=None):
    return ReplicatedDatabase(
        ClusterConfig(
            site_count=4,
            seed=seed,
            broadcast=broadcast,
            failure_detection=failure_detection,
            tracer=tracer,
        ),
        build_registry(),
        initial_data={f"slot:{index}": 0 for index in range(6)},
    )


def submit_from_survivors(cluster, count, start=0.0, spacing=0.004, sites=("N2", "N3", "N4")):
    for index in range(count):
        cluster.kernel.schedule_at(
            start + index * spacing,
            lambda site=sites[index % len(sites)], index=index: cluster.submit(
                site, "add", {"slot": index % 6}
            ),
        )


def drain(cluster, until=1.0):
    """Phased drain: heartbeat detectors tick forever, so stop them first."""
    cluster.run(until=until)
    cluster.stop_failure_detectors()
    cluster.run_until_idle()


@pytest.mark.parametrize("broadcast", [BROADCAST_OPTIMISTIC, BROADCAST_CONSERVATIVE])
def test_processing_continues_after_coordinator_crash(broadcast, failure_detection):
    cluster = build_cluster(broadcast, failure_detection)
    # Phase 1: load while N1 (the initial coordinator) is alive.
    submit_from_survivors(cluster, count=10, start=0.0)
    # N1 crashes after the first phase completes; phase 2 is submitted after
    # the crash and must still commit at the surviving sites.
    cluster.crash_manager.apply_schedule(CrashSchedule().crash("N1", at=0.100))
    submit_from_survivors(cluster, count=10, start=0.150)
    drain(cluster)

    assert cluster.coordinator_site() == "N2"
    surviving = ["N2", "N3", "N4"]
    for site in surviving:
        assert cluster.replica(site).committed_count() == 20
    histories = {site: cluster.replica(site).history for site in surviving}
    check_one_copy_serializability(histories).raise_if_violated()
    contents = {site: cluster.replica(site).database_contents() for site in surviving}
    assert contents["N2"] == contents["N3"] == contents["N4"]


def test_recovered_old_coordinator_reclaims_the_role(failure_detection):
    cluster = build_cluster(BROADCAST_OPTIMISTIC, failure_detection)
    submit_from_survivors(cluster, count=8, start=0.0)
    cluster.crash_manager.apply_schedule(
        CrashSchedule().crash("N1", at=0.080).recover("N1", at=0.200)
    )
    submit_from_survivors(cluster, count=8, start=0.250)
    drain(cluster)

    # Ω rule: the recovered lowest-ranked site is live and unsuspected, so
    # it takes the role back and every endpoint points at it.
    assert cluster.coordinator_site() == "N1"
    assert cluster.broadcast_endpoint("N1").is_coordinator
    for site in cluster.site_ids():
        assert cluster.broadcast_endpoint(site).coordinator_site == "N1"
    # The recovered site caught up on everything it missed and stays 1SR.
    assert cluster.replica("N1").committed_count() == 16
    assert cluster.database_divergence() == {}
    check_one_copy_serializability(cluster.histories()).raise_if_violated()


def test_recovered_non_coordinator_leaves_the_role_in_place(failure_detection):
    tracer = TransactionTracer()
    cluster = build_cluster(BROADCAST_OPTIMISTIC, failure_detection, tracer=tracer)
    survivors = ("N1", "N2", "N4")
    submit_from_survivors(cluster, count=8, start=0.0, sites=survivors)
    cluster.crash_manager.apply_schedule(
        CrashSchedule().crash("N3", at=0.080).recover("N3", at=0.200)
    )
    submit_from_survivors(cluster, count=8, start=0.250, sites=survivors)
    drain(cluster)

    # Condemning N3 leaves N1 the lowest-ranked live site: no promotion.
    assert cluster.coordinator_site() == "N1"
    assert not any(event.kind == "coordinator_elected" for event in tracer.events)
    for site in cluster.site_ids():
        assert cluster.broadcast_endpoint(site).coordinator_site == "N1"
    assert cluster.replica("N3").committed_count() == 16
    assert cluster.database_divergence() == {}
    check_one_copy_serializability(cluster.histories()).raise_if_violated()


def test_messages_in_flight_at_crash_time_are_still_ordered(failure_detection):
    cluster = build_cluster(BROADCAST_OPTIMISTIC, failure_detection, seed=9)
    # Submit from survivors shortly before the coordinator crashes, so some
    # requests are opt-delivered but not yet confirmed when N1 dies.
    submit_from_survivors(cluster, count=6, start=0.0, spacing=0.001)
    cluster.crash_manager.apply_schedule(CrashSchedule().crash("N1", at=0.004))
    drain(cluster)
    surviving = ["N2", "N3", "N4"]
    for site in surviving:
        assert cluster.replica(site).committed_count() == 6
    histories = {site: cluster.replica(site).history for site in surviving}
    check_one_copy_serializability(histories).raise_if_violated()


def test_oracle_failover_traces_one_election_per_promotion():
    tracer = TransactionTracer()
    cluster = build_cluster(BROADCAST_OPTIMISTIC, None, tracer=tracer)
    submit_from_survivors(cluster, count=8, start=0.0)
    cluster.crash_manager.apply_schedule(
        CrashSchedule().crash("N1", at=0.080).recover("N1", at=0.200)
    )
    cluster.run_until_idle()

    # The crash hands the role to N2 and the recovery hands it back: two
    # promotions, each traced once, at the liveness change that caused it.
    elections = [
        (event.time, event.site)
        for event in tracer.events
        if event.kind == "coordinator_elected"
    ]
    assert elections == [(0.080, "N2"), (0.200, "N1")]
