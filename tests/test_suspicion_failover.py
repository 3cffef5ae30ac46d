"""Tests for suspicion-driven coordinator promotion.

With ``failure_detection`` configured the cluster no longer trusts the
crash manager's ground truth for failover: each site runs a heartbeat
failure detector, a site is *condemned* when a quorum of the other live
observers suspect it, and the coordinator role follows the Ω rule — the
lowest-ranked live, non-condemned site.  That machinery must promote on a
real crash (after a detection delay), promote *and demote* on a false
suspicion (the old coordinator reclaims the role once re-trusted), and
never violate 1-copy-serializability across the view changes.
"""

import pytest

from repro import ClusterConfig, ProcedureRegistry, ReplicatedDatabase
from repro.core.config import ShardingConfig
from repro.database.conflict import ConflictClassMap
from repro.errors import ReplicationError
from repro.failure import CrashSchedule, FailureDetectionConfig, SuspicionFailoverGovernor
from repro.network import ConstantLatency
from repro.sharding import ShardedCluster
from repro.verification import check_one_copy_serializability


def build_registry():
    registry = ProcedureRegistry()

    @registry.procedure("add", conflict_class=lambda p: f"C{p['slot'] % 3}", duration=0.002)
    def add(ctx, params):
        key = f"slot:{params['slot']}"
        ctx.write(key, ctx.read(key) + 1)

    return registry


def build_cluster(seed=3, site_count=3, **config_kwargs):
    config_kwargs.setdefault("failure_detection", FailureDetectionConfig())
    config_kwargs.setdefault("latency_model", ConstantLatency(0.001))
    return ReplicatedDatabase(
        ClusterConfig(
            site_count=site_count,
            seed=seed,
            **config_kwargs,
        ),
        build_registry(),
        initial_data={f"slot:{index}": 0 for index in range(6)},
    )


def submit(cluster, count, start=0.0, spacing=0.004, sites=("N2", "N3")):
    for index in range(count):
        cluster.kernel.schedule_at(
            start + index * spacing,
            lambda site=sites[index % len(sites)], index=index: cluster.submit(
                site, "add", {"slot": index % 6}
            ),
        )


def settle(cluster, until):
    """Phased drain for detector-driven clusters (timers never go idle)."""
    cluster.run(until=until)
    cluster.stop_failure_detectors()
    cluster.run_until_idle()


class TestGovernor:
    """Unit tests for the quorum/Ω election rule, with stub detectors."""

    class StubDetector:
        def __init__(self):
            self.suspects = set()
            self.listeners = []

        def add_listener(self, listener):
            self.listeners.append(listener)

        def is_suspected(self, peer):
            return peer in self.suspects

        def suspect(self, peer):
            self.suspects.add(peer)
            for listener in self.listeners:
                listener(peer, True)

        def trust(self, peer):
            self.suspects.discard(peer)
            for listener in self.listeners:
                listener(peer, False)

    def build(self, sites=("N1", "N2", "N3"), quorum=None):
        detectors = {site: self.StubDetector() for site in sites}
        changes = []
        governor = SuspicionFailoverGovernor(
            list(sites), detectors, changes.append, quorum=quorum
        )
        return governor, detectors, changes

    def test_initial_coordinator_is_lowest_ranked(self):
        governor, _, changes = self.build()
        assert governor.coordinator() == "N1"
        assert changes == []  # no change event for the initial state

    def test_single_suspicion_is_not_condemnation(self):
        governor, detectors, changes = self.build()
        detectors["N2"].suspect("N1")  # 1 of 2 observers: below quorum
        assert "N1" not in governor._condemned_sites()
        assert governor.coordinator() == "N1"
        assert changes == []

    def test_quorum_of_suspectors_condemns_and_promotes(self):
        governor, detectors, changes = self.build()
        detectors["N2"].suspect("N1")
        detectors["N3"].suspect("N1")  # 2 of 2 observers: quorum reached
        assert "N1" in governor._condemned_sites()
        assert governor.coordinator() == "N2"
        assert changes == ["N2"]

    def test_retrust_demotes_back_to_rightful_coordinator(self):
        governor, detectors, changes = self.build()
        detectors["N2"].suspect("N1")
        detectors["N3"].suspect("N1")
        detectors["N2"].trust("N1")  # suspicion corrected: quorum lost
        assert "N1" not in governor._condemned_sites()
        assert governor.coordinator() == "N1"
        assert changes == ["N2", "N1"]

    def test_accused_sites_own_detector_does_not_vote(self):
        # The electorate excludes the accused: with an explicit quorum of 1
        # a single *other* observer condemns, but the accused suspecting
        # someone else never counts against itself.
        governor, detectors, changes = self.build(quorum=1)
        detectors["N1"].suspect("N2")  # N1 accuses N2, not itself
        assert "N1" not in governor._condemned_sites()
        assert "N2" in governor._condemned_sites()
        assert governor.coordinator() == "N1"

    def test_site_down_is_not_a_vote(self):
        # Ground-truth liveness must never decide the election: telling the
        # governor a site died changes nothing until detectors condemn it.
        governor, detectors, changes = self.build()
        governor.site_down("N1")
        assert governor.coordinator() == "N1"
        assert changes == []
        detectors["N2"].suspect("N1")
        detectors["N3"].suspect("N1")
        assert governor.coordinator() == "N2"

    def test_condemned_sites_are_skipped_in_ranking(self):
        governor, detectors, changes = self.build()
        detectors["N2"].suspect("N1")
        detectors["N3"].suspect("N1")
        assert governor.coordinator() == "N2"
        # N1 is condemned, so N2's electorate is just {N3}: quorum of 1.
        detectors["N3"].suspect("N2")
        assert governor.coordinator() == "N3"
        assert changes == ["N2", "N3"]

    def test_condemned_observers_lose_their_vote(self):
        governor, detectors, changes = self.build(
            sites=("N1", "N2", "N3", "N4")
        )
        # N4 crashed earlier and was condemned by a quorum (2 of 3); its
        # detector is now frozen and will never suspect anyone again.
        detectors["N1"].suspect("N4")
        detectors["N2"].suspect("N4")
        assert "N4" in governor._condemned_sites()
        # Electorate for N1 is {N2, N3} (N4 condemned): quorum is 2, so a
        # single vote isn't enough but the frozen N4 can't block it either.
        detectors["N2"].suspect("N1")
        assert "N1" not in governor._condemned_sites()
        detectors["N3"].suspect("N1")
        assert "N1" in governor._condemned_sites()
        assert governor.coordinator() == "N2"


class TestSuspicionDrivenCluster:
    def test_crash_promotes_only_after_detection_delay(self):
        cluster = build_cluster()
        cluster.crash_manager.apply_schedule(CrashSchedule().crash("N1", at=0.050))
        # Immediately after the crash nothing has timed out yet: the role
        # still points at N1 (the detectors must *detect*, not be told).
        cluster.run(until=0.060)
        assert cluster.coordinator_site() == "N1"
        # After the suspicion timeout the quorum condemns N1 and promotes.
        cluster.run(until=0.300)
        assert cluster.coordinator_site() == "N2"

    def test_false_suspicion_promotes_then_restores_the_coordinator(self):
        cluster = build_cluster()
        submit(cluster, count=12, start=0.0)

        def spike():
            cluster.transport.latency_model = ConstantLatency(0.150)

        def recover():
            cluster.transport.latency_model = ConstantLatency(0.001)

        cluster.kernel.schedule_at(0.020, spike)
        cluster.kernel.schedule_at(0.140, recover)
        elections = []
        cluster.kernel.schedule_at(
            0.100, lambda: elections.append(cluster.coordinator_site())
        )
        settle(cluster, until=0.8)

        # Mid-spike the healthy coordinator was deposed by false suspicion
        # (a global spike makes everyone suspect everyone, so condemnation
        # can cascade past N2 — who exactly stands in is seed-dependent)...
        assert len(elections) == 1 and elections[0] != "N1"
        # ...and afterwards the rightful lowest-ranked site won it back.
        assert cluster.coordinator_site() == "N1"
        assert not cluster.crash_manager.crash_count("N1")
        # Both view changes happened with every site alive and submitting,
        # yet the definitive order stays single-copy serializable.
        for site in cluster.site_ids():
            assert cluster.replica(site).committed_count() == 12
        assert cluster.database_divergence() == {}
        check_one_copy_serializability(cluster.histories()).raise_if_violated()

    def test_crash_and_recovery_with_detectors_converges(self):
        cluster = build_cluster()
        submit(cluster, count=10, start=0.0)
        cluster.crash_manager.apply_schedule(
            CrashSchedule().crash("N1", at=0.040).recover("N1", at=0.250)
        )
        submit(cluster, count=10, start=0.300)
        settle(cluster, until=0.9)

        # N1 recovered, caught up, and — being live and no longer condemned —
        # reclaimed the role under the Ω rule.
        assert cluster.coordinator_site() == "N1"
        for site in cluster.site_ids():
            assert cluster.replica(site).committed_count() == 20
        assert cluster.database_divergence() == {}
        check_one_copy_serializability(cluster.histories()).raise_if_violated()

    def test_oracle_mode_promotes_at_the_crash_instant(self):
        cluster = ReplicatedDatabase(
            ClusterConfig(site_count=3, seed=3),
            build_registry(),
            initial_data={f"slot:{index}": 0 for index in range(6)},
        )
        # No heartbeat detectors: the governor reads a perfect detector.
        assert cluster.failure_detectors == {}
        cluster.crash_manager.apply_schedule(CrashSchedule().crash("N1", at=0.010))
        cluster.run(until=0.010)
        # The crash event itself condemns N1, so the role has moved already.
        assert cluster.now == 0.010
        assert cluster.coordinator_site() == "N2"


class TestFailureDetectionConfig:
    def test_validation(self):
        with pytest.raises(ReplicationError):
            FailureDetectionConfig(heartbeat_interval=0.0)
        with pytest.raises(ReplicationError):
            FailureDetectionConfig(initial_timeout=-1.0)
        with pytest.raises(ReplicationError):
            FailureDetectionConfig(timeout_increment=-0.1)
        with pytest.raises(ReplicationError):
            FailureDetectionConfig(quorum=0)

    def test_defaults_are_valid(self):
        config = FailureDetectionConfig()
        assert config.heartbeat_interval < config.initial_timeout


class TestQuorumBound:
    """A site has at most n - 1 observers; a larger quorum never condemns."""

    def test_governor_rejects_a_quorum_above_its_observer_count(self):
        detectors = {site: TestGovernor.StubDetector() for site in ("N1", "N2", "N3")}
        with pytest.raises(ReplicationError, match="exceeds the 2 observers"):
            SuspicionFailoverGovernor(["N1", "N2", "N3"], detectors, [].append, quorum=3)

    def test_governor_quorum_of_every_observer_needs_every_suspicion(self):
        governor, detectors, changes = TestGovernor().build(quorum=2)
        detectors["N2"].suspect("N1")
        assert governor.coordinator() == "N1"
        detectors["N3"].suspect("N1")
        assert governor.coordinator() == "N2"
        assert changes == ["N2"]

    def test_flat_quorum_above_observer_count_is_rejected(self):
        with pytest.raises(ReplicationError, match="quorum of 3"):
            build_cluster(failure_detection=FailureDetectionConfig(quorum=3))

    def test_flat_quorum_of_every_observer_is_accepted(self):
        cluster = build_cluster(failure_detection=FailureDetectionConfig(quorum=2))
        cluster.crash_manager.apply_schedule(CrashSchedule().crash("N1", at=0.010))
        submit(cluster, count=5, start=0.100, sites=("N2",))
        settle(cluster, until=0.5)
        assert cluster.coordinator_site() == "N2"
        assert cluster.replica("N2").committed_count() == 5

    def test_sharded_quorum_above_observer_count_is_rejected(self):
        conflict_map = ConflictClassMap()
        conflict_map.define("C0", key_prefixes=("slot:",))
        with pytest.raises(ReplicationError, match="quorum of 3"):
            ShardedCluster(
                ShardingConfig(
                    shard_count=1,
                    sites_per_shard=3,
                    failure_detection=FailureDetectionConfig(quorum=3),
                ),
                build_registry(),
                conflict_map=conflict_map,
            )
