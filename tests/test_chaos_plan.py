"""Unit tests for the fault-plan builder and the chaos orchestrator."""

import pytest

from repro import ClusterConfig, ProcedureRegistry, ReplicatedDatabase
from repro.chaos import (
    ChaosOrchestrator,
    FaultPlan,
    SpikedLatency,
    coordinator,
    random_site,
    shard,
    site,
)
from repro.chaos.scenarios import build_chaos_cluster
from repro.core.config import BROADCAST_OPTIMISTIC
from repro.errors import ChaosError
from repro.network import ConstantLatency
from repro.verification import (
    check_eventual_termination,
    check_one_copy_serializability,
)

from oracles import severed_links


def build_registry():
    registry = ProcedureRegistry()

    @registry.procedure("add", conflict_class=lambda p: f"C{p['slot'] % 3}", duration=0.002)
    def add(ctx, params):
        key = f"slot:{params['slot']}"
        ctx.write(key, ctx.read(key) + 1)

    return registry


def build_flat_cluster(seed=3, **overrides):
    return ReplicatedDatabase(
        ClusterConfig(
            site_count=4,
            seed=seed,
            broadcast=BROADCAST_OPTIMISTIC,
            **overrides,
        ),
        build_registry(),
        initial_data={f"slot:{index}": 0 for index in range(6)},
    )


class TestFaultPlanBuilder:
    def test_events_sorted_by_time_then_insertion(self):
        plan = (
            FaultPlan("p")
            .crash("N1", at=0.5)
            .recover("N1", at=0.2)
            .heal(at=0.2)
        )
        actions = [(event.time, event.action) for event in plan.events()]
        assert actions == [(0.2, "recover"), (0.2, "heal"), (0.5, "crash")]

    def test_negative_time_rejected(self):
        with pytest.raises(ChaosError):
            FaultPlan().crash("N1", at=-1.0)

    def test_nonpositive_durations_rejected(self):
        with pytest.raises(ChaosError):
            FaultPlan().crash("N1", at=0.0, duration=0.0)
        with pytest.raises(ChaosError):
            FaultPlan().partition(["N1"], at=0.0, duration=-1.0)
        with pytest.raises(ChaosError):
            FaultPlan().latency_spike(0.001, at=0.0, duration=0.0)

    def test_latency_spike_needs_positive_delay(self):
        with pytest.raises(ChaosError):
            FaultPlan().latency_spike(0.0, at=0.0, duration=1.0)

    def test_empty_partition_rejected(self):
        with pytest.raises(ChaosError):
            FaultPlan().partition([], at=0.0)

    def test_heal_without_targets_heals_all(self):
        plan = FaultPlan().heal(at=0.1)
        assert plan.events()[0].targets == ()

    def test_recover_rejects_role_targets(self):
        # A role re-resolves to a live site at fire time, so recovering "the
        # coordinator" could never target the crashed ex-coordinator.
        with pytest.raises(ChaosError):
            FaultPlan().recover(coordinator("S1"), at=0.1)
        with pytest.raises(ChaosError):
            FaultPlan().recover(random_site(), at=0.1)

    def test_string_targets_coerce_to_sites(self):
        plan = FaultPlan().crash("N1", at=0.0)
        target = plan.events()[0].targets[0]
        assert target.kind == "site"
        assert target.site == "N1"

    def test_unknown_target_type_rejected(self):
        with pytest.raises(ChaosError):
            FaultPlan().crash(42, at=0.0)

    def test_faults_cease_at_covers_self_reverting_events(self):
        plan = (
            FaultPlan()
            .crash("N1", at=0.1, duration=0.3)
            .latency_spike(0.001, at=0.2, duration=0.1)
        )
        assert plan.faults_cease_at() == pytest.approx(0.4)

    def test_target_descriptions(self):
        assert site("N1").describe() == "site(N1)"
        assert shard("S2").describe() == "shard(S2)"
        assert coordinator().describe() == "coordinator()"
        assert coordinator("S1").describe() == "coordinator(S1)"
        assert random_site("S1").describe() == "random_site(S1)"

    def test_partition_oneway_needs_both_sides(self):
        with pytest.raises(ChaosError):
            FaultPlan().partition_oneway([], ["N2"], at=0.0)
        with pytest.raises(ChaosError):
            FaultPlan().partition_oneway(["N1"], [], at=0.0)
        with pytest.raises(ChaosError):
            FaultPlan().partition_oneway(["N1"], ["N2"], at=0.0, duration=0.0)

    def test_partition_oneway_carries_both_target_groups(self):
        plan = FaultPlan().partition_oneway(
            ["N1"], [site("N2"), "N3"], at=0.1, duration=0.2
        )
        event = plan.events()[0]
        assert event.action == "partition-oneway"
        assert [target.site for target in event.targets] == ["N1"]
        assert [target.site for target in event.receivers] == ["N2", "N3"]
        assert plan.faults_cease_at() == pytest.approx(0.3)


class TestFlatOrchestration:
    def submit_spread(self, cluster, count=12, spacing=0.004, sites=("N2", "N3", "N4")):
        for index in range(count):
            cluster.kernel.schedule(
                index * spacing,
                lambda s=sites[index % len(sites)], i=index: cluster.submit(
                    s, "add", {"slot": i % 6}
                ),
            )

    def test_coordinator_role_crash_recovers_the_same_site(self):
        cluster = build_flat_cluster()
        self.submit_spread(cluster)
        plan = FaultPlan("failover").crash(coordinator(), at=0.020, duration=0.060)
        orchestrator = ChaosOrchestrator(cluster, plan).arm()
        cluster.run_until_idle()

        # The role resolved to N1 at fire time; the auto-recovery brought the
        # *same* site back even though N2 held the role by then, and the
        # recovered N1 reclaimed it under the Ω rule.
        actions = [(fault.action, fault.sites) for fault in orchestrator.trace]
        assert actions == [("crash", ("N1",)), ("recover", ("N1",))]
        assert cluster.crash_manager.is_up("N1")
        assert cluster.broadcast_endpoint("N1").is_coordinator
        assert cluster.replica("N1").committed_count() == 12
        assert cluster.database_divergence() == {}
        check_one_copy_serializability(cluster.histories()).raise_if_violated()
        liveness = check_eventual_termination(cluster)
        liveness.raise_if_violated()
        assert liveness.transactions_checked == 12

    def test_partition_fault_buffers_and_heals(self):
        cluster = build_flat_cluster(seed=5)
        self.submit_spread(cluster, sites=("N1", "N2", "N3"))
        plan = FaultPlan("split").partition([site("N4")], at=0.010, duration=0.050)
        orchestrator = ChaosOrchestrator(cluster, plan).arm()
        cluster.run_until_idle()
        actions = [fault.action for fault in orchestrator.trace]
        assert actions == ["partition", "heal"]
        assert cluster.transport.partitions.intact
        assert cluster.committed_counts()["N4"] == 12

    def test_latency_spike_wraps_and_restores_the_model(self):
        cluster = build_flat_cluster(seed=7, latency_model=ConstantLatency(0.001))
        base_model = cluster.transport.latency_model
        plan = FaultPlan("slow").latency_spike(0.004, at=0.010, duration=0.020)
        observed = {}

        def probe_during():
            observed["during"] = cluster.transport.latency_model

        cluster.kernel.schedule_at(0.015, probe_during)
        ChaosOrchestrator(cluster, plan).arm()
        cluster.run_until_idle()
        assert isinstance(observed["during"], SpikedLatency)
        assert observed["during"].base is base_model
        assert cluster.transport.latency_model is base_model

    def test_overlapping_crash_windows_keep_the_site_down(self):
        # A short crash window nested inside a longer one must not revive the
        # site early: the outer window still holds it down.
        cluster = build_flat_cluster()
        plan = (
            FaultPlan("nested")
            .crash("N4", at=0.010, duration=0.050)
            .crash("N4", at=0.020, duration=0.010)
        )
        ChaosOrchestrator(cluster, plan).arm()
        cluster.run(until=0.035)  # inner window ended at 0.030
        assert not cluster.crash_manager.is_up("N4")
        cluster.run(until=0.070)  # outer window ended at 0.060
        assert cluster.crash_manager.is_up("N4")

    def test_overlapping_partition_windows_keep_the_site_isolated(self):
        cluster = build_flat_cluster()
        plan = (
            FaultPlan("nested-split")
            .partition([site("N4")], at=0.010, duration=0.050)
            .partition([site("N4")], at=0.020, duration=0.010)
        )
        ChaosOrchestrator(cluster, plan).arm()
        cluster.run(until=0.035)  # inner window ended at 0.030
        assert not cluster.transport.partitions.connected("N1", "N4")
        cluster.run(until=0.070)  # outer window ended at 0.060
        assert cluster.transport.partitions.connected("N1", "N4")

    def test_explicit_recover_cancels_the_open_crash_window(self):
        # crash(duration=0.050), explicit recover mid-window, then a new
        # *permanent* crash: the cancelled window's auto-recover at 0.060
        # must not revive the permanently crashed site.
        cluster = build_flat_cluster()
        plan = (
            FaultPlan("cancelled-window")
            .crash("N4", at=0.010, duration=0.050)
            .recover("N4", at=0.020)
            .crash("N4", at=0.030)
        )
        ChaosOrchestrator(cluster, plan).arm()
        cluster.run(until=0.025)
        assert cluster.crash_manager.is_up("N4")
        cluster.run(until=0.100)
        assert not cluster.crash_manager.is_up("N4")

    def test_explicit_heal_cancels_the_open_partition_window(self):
        cluster = build_flat_cluster()
        plan = (
            FaultPlan("cancelled-split")
            .partition([site("N4")], at=0.010, duration=0.050)
            .heal(at=0.020)
            .partition([site("N4")], at=0.030)  # open-ended
        )
        ChaosOrchestrator(cluster, plan).arm()
        cluster.run(until=0.100)  # stale auto-heal fired at 0.060
        assert not cluster.transport.partitions.connected("N1", "N4")

    def test_oneway_partition_severs_and_auto_restores(self):
        cluster = build_flat_cluster(seed=5)
        self.submit_spread(cluster, sites=("N1", "N2", "N3"))
        plan = FaultPlan("deaf").partition_oneway(
            [site("N1")], [site("N4")], at=0.010, duration=0.050
        )
        orchestrator = ChaosOrchestrator(cluster, plan).arm()
        probes = {}

        def probe():
            partitions = cluster.transport.partitions
            probes["during"] = (
                partitions.connected("N1", "N4"),
                partitions.connected("N4", "N1"),
            )

        cluster.kernel.schedule_at(0.030, probe)
        cluster.run_until_idle()

        # Only the N1 -> N4 direction was dark; the reverse stayed open.
        assert probes["during"] == (False, True)
        assert severed_links(cluster.transport.partitions) == []
        actions = [(fault.action, fault.sites) for fault in orchestrator.trace]
        assert actions == [
            ("partition-oneway", ("N1->N4",)),
            ("heal", ("N1->N4",)),
        ]
        # Held envelopes were flushed on restore: N4 converges regardless.
        assert cluster.committed_counts()["N4"] == 12
        assert cluster.database_divergence() == {}

    def test_overlapping_oneway_windows_keep_the_link_severed(self):
        cluster = build_flat_cluster()
        plan = (
            FaultPlan("nested-deaf")
            .partition_oneway(["N1"], ["N4"], at=0.010, duration=0.050)
            .partition_oneway(["N1"], ["N4"], at=0.020, duration=0.010)
        )
        ChaosOrchestrator(cluster, plan).arm()
        cluster.run(until=0.035)  # inner window ended at 0.030
        assert not cluster.transport.partitions.connected("N1", "N4")
        cluster.run(until=0.070)  # outer window ended at 0.060
        assert cluster.transport.partitions.connected("N1", "N4")

    def test_explicit_heal_cancels_the_open_oneway_window(self):
        cluster = build_flat_cluster()
        plan = (
            FaultPlan("cancelled-deaf")
            .partition_oneway(["N1"], ["N4"], at=0.010, duration=0.050)
            .heal(at=0.020)
            .partition_oneway(["N1"], ["N4"], at=0.030)  # open-ended
        )
        ChaosOrchestrator(cluster, plan).arm()
        cluster.run(until=0.100)  # stale auto-restore fired at 0.060
        assert not cluster.transport.partitions.connected("N1", "N4")

    def test_oneway_sources_can_be_roles(self):
        cluster = build_flat_cluster()
        plan = FaultPlan("deaf-to-coordinator").partition_oneway(
            [coordinator()], ["N4"], at=0.010, duration=0.030
        )
        orchestrator = ChaosOrchestrator(cluster, plan).arm()
        cluster.run(until=0.020)
        # The role resolved to N1 (the initial coordinator) at fire time.
        assert not cluster.transport.partitions.connected("N1", "N4")
        assert cluster.transport.partitions.connected("N4", "N1")
        cluster.run_until_idle()
        assert orchestrator.trace[0].sites == ("N1->N4",)

    def test_oneway_collapsing_to_no_links_rejected(self):
        cluster = build_flat_cluster()
        plan = FaultPlan("self-deaf").partition_oneway(
            ["N4"], ["N4"], at=0.010
        )
        ChaosOrchestrator(cluster, plan).arm()
        with pytest.raises(ChaosError):
            cluster.run_until_idle()

    def test_inner_window_end_leaves_no_phantom_trace_record(self):
        # The nested window's auto-revert releases nothing, so it must not
        # add a "recover -> ()" entry to the trace.
        cluster = build_flat_cluster()
        plan = (
            FaultPlan("nested")
            .crash("N4", at=0.010, duration=0.050)
            .crash("N4", at=0.020, duration=0.010)
        )
        orchestrator = ChaosOrchestrator(cluster, plan).arm()
        cluster.run_until_idle()
        actions = [(fault.action, fault.sites) for fault in orchestrator.trace]
        assert actions == [
            ("crash", ("N4",)),
            ("crash", ("N4",)),
            ("recover", ("N4",)),
        ]

    def test_overlapping_latency_spikes_compose_additively(self):
        cluster = build_flat_cluster(seed=7, latency_model=ConstantLatency(0.001))
        base_model = cluster.transport.latency_model
        plan = (
            FaultPlan("double-slow")
            .latency_spike(0.005, at=0.010, duration=0.040)  # ends at 0.050
            .latency_spike(0.010, at=0.020, duration=0.040)  # ends at 0.060
        )
        samples = {}

        def probe(label):
            def capture():
                model = cluster.transport.latency_model
                samples[label] = (
                    model.extra_delay if isinstance(model, SpikedLatency) else 0.0
                )
            return capture

        for label, when in (("both", 0.030), ("second-only", 0.055), ("none", 0.065)):
            cluster.kernel.schedule_at(when, probe(label))
        ChaosOrchestrator(cluster, plan).arm()
        cluster.run_until_idle()
        assert samples["both"] == pytest.approx(0.015)
        # After the first spike's window ends, exactly its +5ms is removed.
        assert samples["second-only"] == pytest.approx(0.010)
        assert samples["none"] == 0.0
        assert cluster.transport.latency_model is base_model

    def test_shard_target_rejected_on_flat_cluster(self):
        cluster = build_flat_cluster()
        plan = FaultPlan().crash(shard("S1"), at=0.0)
        ChaosOrchestrator(cluster, plan).arm()
        with pytest.raises(ChaosError):
            cluster.run_until_idle()

    def test_arming_twice_rejected(self):
        cluster = build_flat_cluster()
        orchestrator = ChaosOrchestrator(cluster, FaultPlan().crash("N1", at=0.0))
        orchestrator.arm()
        with pytest.raises(ChaosError):
            orchestrator.arm()

    def test_binding_rejects_unknown_cluster_type(self):
        with pytest.raises(ChaosError):
            ChaosOrchestrator(object(), FaultPlan())


def _bound_cluster(shape):
    if shape == "flat":
        return build_flat_cluster()
    cluster, _ = build_chaos_cluster(seed=2, shard_count={"one-shard": 1, "two-shard": 2}[shape])
    return cluster


class TestOneBinding:
    """Flat, 1-shard and 2-shard clusters bind through the same group map."""

    @pytest.mark.parametrize("shape", ["flat", "one-shard", "two-shard"])
    def test_bare_coordinator_resolves_iff_there_is_one_group(self, shape):
        cluster = _bound_cluster(shape)
        groups = cluster.replica_groups()
        orchestrator = ChaosOrchestrator(cluster, FaultPlan().crash(coordinator(), at=0.001))
        orchestrator.arm()
        if len(groups) == 1:
            (group,) = groups.values()
            expected = group.coordinator_site()
            cluster.run(until=0.002)
            assert orchestrator.trace[0].sites == (expected,)
            assert not group.crash_manager.is_up(expected)
        else:
            with pytest.raises(ChaosError):
                cluster.run(until=0.002)

    @pytest.mark.parametrize("shape", ["flat", "one-shard", "two-shard"])
    def test_unknown_shard_rejected(self, shape):
        cluster = _bound_cluster(shape)
        ChaosOrchestrator(cluster, FaultPlan().crash(shard("S9"), at=0.001)).arm()
        with pytest.raises(ChaosError):
            cluster.run(until=0.002)

    @pytest.mark.parametrize("shape", ["flat", "one-shard", "two-shard"])
    def test_site_crash_and_recover_reach_the_owning_crash_manager(self, shape):
        cluster = _bound_cluster(shape)
        group_id, group = list(cluster.replica_groups().items())[-1]
        victim = group.site_ids()[-1]
        plan = FaultPlan().crash(site(victim), at=0.001).recover(site(victim), at=0.003)
        ChaosOrchestrator(cluster, plan).arm()
        cluster.run(until=0.002)
        assert not group.crash_manager.is_up(victim)
        assert group.crash_manager.crash_count(victim) == 1
        for other_id, other in cluster.replica_groups().items():
            if other_id != group_id:
                assert all(other.crash_manager.is_up(s) for s in other.site_ids())
        cluster.run(until=0.004)
        assert group.crash_manager.is_up(victim)


class TestShardedOrchestration:
    def test_shard_target_resolves_to_all_shard_sites(self):
        cluster, _ = build_chaos_cluster(seed=2)
        plan = FaultPlan("outage").crash(shard("S2"), at=0.005, duration=0.020)
        orchestrator = ChaosOrchestrator(cluster, plan).arm()
        cluster.run(until=0.010)
        crash = orchestrator.trace[0]
        assert crash.sites == ("S2:N1", "S2:N2", "S2:N3")
        assert all(not cluster.shard("S2").crash_manager.is_up(s) for s in crash.sites)
        cluster.run_until_idle()
        assert all(cluster.shard("S2").crash_manager.is_up(s) for s in crash.sites)

    def test_coordinator_target_requires_a_shard(self):
        cluster, _ = build_chaos_cluster(seed=2)
        plan = FaultPlan().crash(coordinator(), at=0.0)
        ChaosOrchestrator(cluster, plan).arm()
        with pytest.raises(ChaosError):
            cluster.run_until_idle()

    def test_shard_coordinator_crash_triggers_that_shards_failover(self):
        cluster, _ = build_chaos_cluster(seed=2)
        plan = FaultPlan().crash(coordinator("S1"), at=0.005)
        ChaosOrchestrator(cluster, plan).arm()
        cluster.run(until=0.010)
        assert cluster.shard("S1").coordinator_site() == "S1:N2"
        assert cluster.shard("S2").coordinator_site() == "S2:N1"

    def test_random_site_is_deterministic_per_seed(self):
        picks = []
        for _ in range(2):
            cluster, _ = build_chaos_cluster(seed=11)
            plan = FaultPlan().crash(random_site("S1"), at=0.005, duration=0.010)
            orchestrator = ChaosOrchestrator(cluster, plan).arm()
            cluster.run_until_idle()
            picks.append(orchestrator.trace[0].sites)
        assert picks[0] == picks[1]
        assert picks[0][0].startswith("S1:")
