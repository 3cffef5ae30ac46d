"""Tests for admission control: watermark hysteresis, shedding, deferral.

The unit tests drive :class:`~repro.core.admission.AdmissionController`
against a stub replica whose queue depth is set directly; the integration
tests put the valve in front of real clusters under open-loop overload,
whole-group outages and dark shards.
"""

import pytest

from repro import ClusterConfig, ReplicatedDatabase
from repro.chaos import build_chaos_cluster
from repro.core.admission import (
    DECISION_ADMIT,
    DECISION_DEFER,
    DECISION_SHED,
    AdmissionConfig,
    AdmissionController,
)
from repro.errors import ReplicationError
from repro.metrics.collector import MetricsCollector
from repro.observability.registry import derive_metrics
from repro.verification import check_one_copy_serializability
from repro.workloads import (
    UPDATE_PROCEDURE,
    OpenLoopSpec,
    OpenLoopTrafficEngine,
    PoissonArrivals,
    build_conflict_map,
    build_initial_data,
    build_partitioned_registry,
    partition_class_id,
)


class TestAdmissionConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"high_watermark": 0},
            {"high_watermark": 8, "low_watermark": 9},
            {"low_watermark": -1},
            {"policy": "drop"},
            {"retry_interval": 0.0},
            {"max_deferrals": -1},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ReplicationError):
            AdmissionConfig(**kwargs)

    def test_defaults_are_valid(self):
        config = AdmissionConfig()
        assert config.low_watermark < config.high_watermark


class _StubScheduler:
    def __init__(self):
        self.depth = 0

    def pending_count(self):
        return self.depth


class _StubReplica:
    def __init__(self):
        self.scheduler = _StubScheduler()
        self.metrics = MetricsCollector("stub")


def controller(**config_overrides):
    config_overrides.setdefault("high_watermark", 4)
    config_overrides.setdefault("low_watermark", 2)
    replica = _StubReplica()
    return AdmissionController(replica, AdmissionConfig(**config_overrides)), replica


class TestWatermarkHysteresis:
    def decide_at(self, valve, replica, depth):
        replica.scheduler.depth = depth
        return valve.decide()

    def test_valve_closes_at_high_and_reopens_only_at_low(self):
        valve, replica = controller()
        assert self.decide_at(valve, replica, 3) == DECISION_ADMIT
        assert self.decide_at(valve, replica, 4) == DECISION_SHED
        # Inside the hysteresis band the valve stays closed: a depth
        # oscillating between low and high must not flap it open.
        assert self.decide_at(valve, replica, 3) == DECISION_SHED
        assert self.decide_at(valve, replica, 4) == DECISION_SHED
        assert self.decide_at(valve, replica, 3) == DECISION_SHED
        assert valve.shed_windows == 1
        # Only draining to the low watermark reopens it...
        assert self.decide_at(valve, replica, 2) == DECISION_ADMIT
        # ...and inside the band it now stays open until high is hit again.
        assert self.decide_at(valve, replica, 3) == DECISION_ADMIT
        assert self.decide_at(valve, replica, 4) == DECISION_SHED
        assert valve.shed_windows == 2

    def test_defer_policy_returns_defer_while_closed(self):
        valve, replica = controller(policy="defer")
        assert self.decide_at(valve, replica, 4) == DECISION_DEFER

    def test_queue_depth_gauge_tracks_every_decision(self):
        valve, replica = controller()
        self.decide_at(valve, replica, 3)
        self.decide_at(valve, replica, 7)
        self.decide_at(valve, replica, 1)
        assert replica.metrics.gauge_max("admission_queue_depth") == 7.0


def build_open_loop_cluster(*, seed, admission, rate=4000.0, horizon=0.1):
    spec = OpenLoopSpec(
        arrivals=PoissonArrivals(rate=rate),
        horizon=horizon,
        class_count=4,
        update_duration=0.002,
    )
    base = spec.base_spec()
    cluster = ReplicatedDatabase(
        ClusterConfig(site_count=4, seed=seed, admission=admission),
        build_partitioned_registry(base),
        conflict_map=build_conflict_map(base),
        initial_data=build_initial_data(base),
    )
    return cluster, spec


class TestOverloadIntegration:
    def test_valve_sheds_past_the_knee_and_bounds_the_backlog(self):
        # 4000 tps offered against a ~2000 tps knee: without the valve the
        # class queues absorb the whole excess; with it the backlog stays
        # near the high watermark and the excess is counted as shed.
        admission = AdmissionConfig(high_watermark=16, low_watermark=8)
        valved, spec = build_open_loop_cluster(seed=29, admission=admission)
        valved_plan = OpenLoopTrafficEngine(spec).apply(valved)
        valved.run_until_idle()
        valved.check_scheduler_invariants()
        open_cluster, _ = build_open_loop_cluster(seed=29, admission=None)
        open_plan = OpenLoopTrafficEngine(spec).apply(open_cluster)
        open_cluster.run_until_idle()

        # Equal seeds: both clusters saw the identical offer schedule.
        assert valved_plan.update_count == open_plan.update_count

        derived = derive_metrics(valved)
        assert derived.sheds_by_cause["overload"] > 0
        assert derived.admitted + derived.sheds_by_cause["overload"] == (
            valved_plan.update_count
        )
        assert valved_plan.refused_updates == derived.sheds_by_cause["overload"]
        unvalved = derive_metrics(open_cluster)
        assert derived.max_class_queue_depth < unvalved.max_class_queue_depth
        # Shedding refuses work at the door; it never corrupts admitted work.
        check_one_copy_serializability(valved.histories()).raise_if_violated()

    def test_defer_policy_accounts_for_every_offer(self):
        # Under the defer policy an offer's terminal fate is admit or
        # defer-exhausted shed — nothing silently disappears.
        admission = AdmissionConfig(
            high_watermark=16,
            low_watermark=8,
            policy="defer",
            retry_interval=0.01,
            max_deferrals=4,
        )
        cluster, spec = build_open_loop_cluster(seed=31, admission=admission)
        plan = OpenLoopTrafficEngine(spec).apply(cluster)
        cluster.run_until_idle()
        derived = derive_metrics(cluster)
        assert derived.deferred > 0
        exhausted = derived.sheds_by_cause["defer_exhausted"]
        assert derived.admitted + exhausted == plan.update_count
        assert max(cluster.committed_counts().values()) == derived.admitted
        check_one_copy_serializability(cluster.histories()).raise_if_violated()


def update_parameters(class_index):
    return {"class_index": class_index, "object_indexes": [0, 1], "amount": 1}


class TestShedDuringCrash:
    def test_dark_replica_set_sheds_then_recovers(self):
        admission = AdmissionConfig(high_watermark=16, low_watermark=8)
        cluster, _ = build_open_loop_cluster(seed=37, admission=admission)
        for site in cluster.site_ids():
            cluster.crash_manager.crash_now(site)
        assert cluster.offer_update(UPDATE_PROCEDURE, update_parameters(0)) is None
        shed_site_down = sum(
            replica.metrics.count("admission_shed_site_down")
            for replica in cluster.replicas.values()
        )
        assert shed_site_down == 1
        for site in cluster.site_ids():
            cluster.crash_manager.recover_now(site)
        admitted = cluster.offer_update(UPDATE_PROCEDURE, update_parameters(0))
        assert admitted is not None
        cluster.run_until_idle()
        assert set(cluster.committed_counts().values()) == {1}

    def test_defer_policy_rides_out_a_whole_group_outage(self):
        admission = AdmissionConfig(
            high_watermark=16,
            low_watermark=8,
            policy="defer",
            retry_interval=0.005,
            max_deferrals=20,
        )
        cluster, _ = build_open_loop_cluster(seed=41, admission=admission)
        for site in cluster.site_ids():
            cluster.crash_manager.crash_now(site)
        assert cluster.offer_update(UPDATE_PROCEDURE, update_parameters(1)) is None
        cluster.kernel.schedule_at(
            0.02,
            lambda: [
                cluster.crash_manager.recover_now(site)
                for site in cluster.site_ids()
            ],
            label="recover-group",
        )
        cluster.run_until_idle()
        assert set(cluster.committed_counts().values()) == {1}
        deferred = sum(
            replica.metrics.count("admission_deferred")
            for replica in cluster.replicas.values()
        )
        assert deferred >= 1

    def test_defer_exhaustion_sheds_with_its_own_cause(self):
        admission = AdmissionConfig(
            high_watermark=16,
            low_watermark=8,
            policy="defer",
            retry_interval=0.005,
            max_deferrals=2,
        )
        cluster, _ = build_open_loop_cluster(seed=43, admission=admission)
        for site in cluster.site_ids():
            cluster.crash_manager.crash_now(site)
        assert cluster.offer_update(UPDATE_PROCEDURE, update_parameters(2)) is None
        cluster.run_until_idle()  # the site never recovers; retries exhaust
        exhausted = sum(
            replica.metrics.count("admission_shed_defer_exhausted")
            for replica in cluster.replicas.values()
        )
        assert exhausted == 1
        deferred = sum(
            replica.metrics.count("admission_deferred")
            for replica in cluster.replicas.values()
        )
        assert deferred == admission.max_deferrals


class TestDarkShardBackpressure:
    def test_dark_shard_sheds_without_starving_healthy_shards(self):
        cluster, spec = build_chaos_cluster(
            47, admission=AdmissionConfig(high_watermark=16, low_watermark=8)
        )
        dark_class = 0
        dark_shard = cluster.shard_map.shard_of_class(partition_class_id(dark_class))
        healthy_class = next(
            index
            for index in range(spec.class_count)
            if cluster.shard_map.shard_of_class(partition_class_id(index))
            != dark_shard
        )
        dark = cluster.shard(dark_shard)
        for site in dark.site_ids():
            dark.crash_manager.crash_now(site)

        offers = 10
        for _ in range(offers):
            assert (
                cluster.offer_update(
                    UPDATE_PROCEDURE, update_parameters(dark_class)
                )
                is None
            )
            assert (
                cluster.offer_update(
                    UPDATE_PROCEDURE, update_parameters(healthy_class)
                )
                is not None
            )
        cluster.run_until_idle()

        shed_site_down = sum(
            replica.metrics.count("admission_shed_site_down")
            for replica in dark.replicas.values()
        )
        assert shed_site_down == offers
        healthy_shard = cluster.shard_map.shard_of_class(
            partition_class_id(healthy_class)
        )
        healthy = cluster.shard(healthy_shard)
        assert set(healthy.committed_counts().values()) == {offers}
        check_one_copy_serializability(healthy.histories()).raise_if_violated()
