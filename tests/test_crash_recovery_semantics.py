"""Real crash semantics: volatile-state loss and redo-log catch-up.

A crash destroys a site's volatile execution state — in-flight transactions,
optimistic/TO-delivery queues, workspaces, running snapshot queries — and a
recovering site must rebuild its committed prefix from a live peer's redo
log before rejoining the broadcast group (paper Sections 2 and 3.2).  These
tests pin down each piece of that protocol, the recovery-completeness
verification layer, and the satellite fixes that ride along (failure-
detector reset notifications, timestamped redo replay).

Marker-gated (``pytest -m recovery``) so CI runs the state-loss suite as its
own step.
"""

import pytest

from repro import ClusterConfig, ProcedureRegistry, ReplicatedDatabase
from repro.core.config import BROADCAST_CONSERVATIVE, BROADCAST_OPTIMISTIC
from repro.core.replica import SiteCrashedError
from repro.failure import CrashSchedule, FailureDetector
from repro.network import ConstantLatency, NetworkTransport
from repro.simulation import SimulationKernel
from repro.verification import (
    check_eventual_termination,
    check_one_copy_serializability,
    check_recovery_completeness,
)

pytestmark = pytest.mark.recovery

#: The designs with crash recovery: lazy replication has none.
ORDERED_BROADCASTS = (BROADCAST_OPTIMISTIC, BROADCAST_CONSERVATIVE)


def build_registry(duration=0.005):
    registry = ProcedureRegistry()

    @registry.procedure(
        "add", conflict_class=lambda p: f"C{p['slot'] % 2}", duration=duration
    )
    def add(ctx, params):
        key = f"slot:{params['slot']}"
        ctx.write(key, ctx.read(key) + 1)

    @registry.procedure("total", is_query=True, duration=0.004)
    def total(ctx, params):
        return sum(ctx.read(f"slot:{index}") for index in range(4))

    return registry


def build_cluster(seed=5, site_count=3, duration=0.005, broadcast=BROADCAST_OPTIMISTIC):
    return ReplicatedDatabase(
        ClusterConfig(
            site_count=site_count,
            seed=seed,
            broadcast=broadcast,
        ),
        build_registry(duration=duration),
        initial_data={f"slot:{index}": 0 for index in range(4)},
    )


class TestVolatileStateLoss:
    def test_crash_destroys_inflight_transactions_and_closes_the_site(self):
        cluster = build_cluster()
        txn_id = cluster.submit("N1", "add", {"slot": 0})
        cluster.run(until=0.0020)  # opt-delivered and executing everywhere
        replica = cluster.replica("N3")
        assert replica.scheduler.pending_transactions(), "setup: nothing in flight"
        assert replica.engine.is_submitted(txn_id)

        cluster.crash_manager.crash_now("N3")

        assert replica.scheduler.pending_transactions() == []
        assert not replica.engine.is_submitted(txn_id)
        assert not replica.is_open
        assert replica.store.read_latest("slot:0") == 0  # workspace died with it
        assert replica.metrics.count("crashes") == 1
        assert replica.metrics.count("inflight_lost_in_crash") >= 1
        with pytest.raises(SiteCrashedError):
            cluster.submit("N3", "add", {"slot": 1})
        with pytest.raises(SiteCrashedError):
            cluster.submit_query("N3", "total")

    def test_inflight_transaction_does_not_survive_restart_without_redo_replay(self):
        """Acceptance criterion: the pre-crash in-flight transaction is gone
        after the restart and only reappears through redo-log state transfer."""
        cluster = build_cluster()
        cluster.submit("N1", "add", {"slot": 0})
        cluster.run(until=0.0020)
        replica = cluster.replica("N3")
        cluster.crash_manager.crash_now("N3")

        # Peers commit while N3 is down; N3's restart state has no trace of
        # the transaction (empty queues, unchanged store).
        cluster.run(until=0.040)
        assert cluster.replica("N1").committed_count() == 1
        assert replica.committed_count() == 0
        assert replica.scheduler.pending_transactions() == []
        assert replica.store.read_latest("slot:0") == 0

        cluster.crash_manager.recover_now("N3")
        cluster.run_until_idle()

        # The commit arrived via state transfer, not via a surviving queue.
        assert replica.metrics.count("state_transfer_commits") == 1
        assert replica.committed_count() == 1
        assert replica.store.read_latest("slot:0") == 1
        assert replica.is_open
        assert cluster.database_divergence() == {}
        check_recovery_completeness(cluster).raise_if_violated()

    def test_replayed_versions_carry_original_commit_timestamps(self):
        cluster = build_cluster()
        cluster.submit("N1", "add", {"slot": 0})
        cluster.crash_manager.apply_schedule(
            CrashSchedule().crash_for("N3", at=0.002, duration=0.080)
        )
        cluster.run_until_idle()
        donor_version = cluster.replica("N1").store.version_at("slot:0", float("inf"))
        recovered_version = cluster.replica("N3").store.version_at("slot:0", float("inf"))
        assert recovered_version.created_at == donor_version.created_at
        assert recovered_version.created_at > 0.0
        assert recovered_version.created_index == donor_version.created_index

    def test_inflight_query_is_aborted_and_counts_as_terminated(self):
        cluster = build_cluster()
        # Commit something first so the query has data, then crash mid-query.
        cluster.submit("N1", "add", {"slot": 0})
        cluster.run(until=0.040)
        execution = cluster.submit_query("N3", "total")
        cluster.crash_manager.apply_schedule(
            CrashSchedule().crash_for("N3", at=0.041, duration=0.050)
        )
        cluster.run_until_idle()
        assert execution.aborted
        assert execution.completed_at is None
        assert cluster.replica("N3").metrics.count("queries_aborted_by_crash") == 1
        check_eventual_termination(cluster).raise_if_violated()


class TestRecoveryProtocol:
    def test_crashed_origin_resubmits_unresolved_requests(self):
        cluster = build_cluster(seed=11)
        tid = cluster.submit("N1", "add", {"slot": 1})
        # Crash the origin before anything commits; the request is already in
        # the network, so it commits at the survivors exactly once.
        cluster.crash_manager.apply_schedule(
            CrashSchedule().crash_for("N1", at=0.001, duration=0.100)
        )
        cluster.run_until_idle()
        submitted = cluster.replica("N1").submitted[tid]
        assert submitted.crash_voided_at is not None
        assert submitted.committed_at is not None  # learned after recovery
        for site in cluster.site_ids():
            assert cluster.replica(site).committed_count() == 1
        assert cluster.database_divergence() == {}
        check_one_copy_serializability(cluster.histories()).raise_if_violated()
        check_recovery_completeness(cluster).raise_if_violated()

    @pytest.mark.parametrize("broadcast", ORDERED_BROADCASTS)
    @pytest.mark.parametrize("crash_at_us", range(200, 6000, 200))
    def test_whole_group_crash_commits_exactly_once_after_recovery(
        self, broadcast, crash_at_us
    ):
        cluster = build_cluster(seed=13, broadcast=broadcast)
        tid = cluster.submit("N1", "add", {"slot": 0})
        schedule = CrashSchedule()
        for site in cluster.site_ids():
            schedule.crash_for(site, at=crash_at_us / 1e6, duration=0.060)
        cluster.crash_manager.apply_schedule(schedule)
        cluster.run_until_idle()
        counts = set(cluster.committed_counts().values())
        assert counts == {1}, f"expected exactly-once everywhere, got {counts}"
        assert cluster.database_divergence() == {}
        assert cluster.replica("N1").submitted[tid].committed_at is not None
        check_recovery_completeness(cluster).raise_if_violated()

    def test_recovery_completeness_flags_a_lagging_store(self):
        cluster = build_cluster()
        for index in range(4):
            cluster.submit("N1", "add", {"slot": index % 2})
        cluster.crash_manager.apply_schedule(
            CrashSchedule().crash_for("N2", at=0.004, duration=0.100)
        )
        cluster.run_until_idle()
        report = check_recovery_completeness(cluster)
        assert report.ok and report.recovered_sites_checked == 1
        # Sabotage the recovered store: the check must notice the divergence.
        cluster.replica("N2").store.install(
            "slot:0", 999, created_index=999, created_by="T:sabotage"
        )
        assert not check_recovery_completeness(cluster).ok

    def test_recovery_completeness_flags_a_store_missing_a_committed_version(self):
        cluster = build_cluster()
        cluster.submit("N1", "add", {"slot": 0})
        cluster.submit("N1", "add", {"slot": 0})
        cluster.run_until_idle()
        assert check_recovery_completeness(cluster).ok
        # Drop index 0's version of slot:0 at N2.  Its latest contents,
        # history and frontier still match: only the version it would
        # donate for index 0 is gone.
        assert cluster.replica("N2").store.prune(1) == 2
        assert cluster.database_divergence() == {}
        report = check_recovery_completeness(cluster)
        assert not report.ok
        assert "store of N2 lacks 1 committed versions" in report.violations[0]

    @pytest.mark.parametrize("broadcast", ORDERED_BROADCASTS)
    @pytest.mark.parametrize("victim", ["N3", "N1"], ids=["follower", "coordinator"])
    def test_recovery_under_load_preserves_one_copy_serializability(
        self, broadcast, victim
    ):
        cluster = build_cluster(seed=17, duration=0.002, broadcast=broadcast)
        survivors = [site for site in cluster.site_ids() if site != victim]
        for index in range(24):
            site = survivors[index % 2]
            cluster.kernel.schedule(
                index * 0.002,
                lambda site=site, index=index: cluster.submit(
                    site, "add", {"slot": index % 4}
                ),
            )
        cluster.crash_manager.apply_schedule(
            CrashSchedule().crash_for(victim, at=0.010, duration=0.030)
        )
        cluster.run_until_idle()
        assert set(cluster.committed_counts().values()) == {24}
        check_one_copy_serializability(cluster.histories()).raise_if_violated()
        check_recovery_completeness(cluster).raise_if_violated()
        assert cluster.replica(victim).metrics.count("state_transfer_commits") > 0


class TestChaosRecoveryScenario:
    @pytest.mark.parametrize("seed", (1, 2, 3, 4, 5))
    def test_crash_during_execution_passes_recovery_check(self, seed):
        from repro.chaos import run_chaos_scenario

        result = run_chaos_scenario("crash_during_execution", seed=seed)
        result.raise_if_violated()
        assert result.recovery_ok
        assert result.recovered_sites >= 1
        assert result.committed == result.submitted_updates

    def test_crash_during_execution_transfers_state_and_reproduces(self):
        from repro.chaos import run_chaos_scenario

        first = run_chaos_scenario("crash_during_execution", seed=3)
        second = run_chaos_scenario("crash_during_execution", seed=3)
        assert first.transferred_commits > 0
        assert first.trace_signature() == second.trace_signature()
        assert first.transferred_commits == second.transferred_commits

    def test_state_transfer_invalidates_stale_tentative_executions(self):
        """Regression: a transaction that executed tentatively *before* state
        transfer installed an earlier same-class commit must be re-executed —
        committing its stale workspace diverged the recovered store
        (rolling_shard_crashes, seed 8) while histories still matched."""
        from repro.chaos import run_chaos_scenario

        result = run_chaos_scenario("rolling_shard_crashes", seed=8)
        result.raise_if_violated()
        assert result.recovery_ok


class TestFailureDetectorResetNotifies:
    def test_reset_lifts_suspicions_through_listeners(self):
        kernel = SimulationKernel(seed=1)
        transport = NetworkTransport(kernel, ConstantLatency(0.001))
        from repro.network.dispatcher import SiteDispatcher

        dispatchers = {}
        detectors = {}
        for site in ("N1", "N2"):
            dispatchers[site] = SiteDispatcher(transport, site)
        for site in ("N1", "N2"):
            detector = FailureDetector(kernel, transport, site)
            dispatchers[site].register_kind(
                "failure-detector.heartbeat", detector.on_envelope
            )
            detectors[site] = detector
            detector.start()
        events = []
        detectors["N1"].add_listener(lambda peer, suspected: events.append((peer, suspected)))
        detectors["N2"].stop()  # N2's heartbeats stop arriving at N1
        kernel.run(until=0.200)
        assert detectors["N1"].is_suspected("N2")
        assert ("N2", True) in events

        detectors["N1"].reset()
        assert not detectors["N1"].is_suspected("N2")
        assert events[-1] == ("N2", False), (
            "reset() must notify listeners that the suspicion was lifted"
        )


class TestRedoEdgeCases:
    def test_records_after_boundary_is_exclusive_and_up_to_inclusive(self):
        cluster = build_cluster()
        for _ in range(3):
            cluster.submit("N1", "add", {"slot": 0})
        cluster.run_until_idle()
        replica = cluster.replica("N1")
        redo = replica.redo_log

        def indices(after, up_to):
            return [c.global_index for c, _ in redo.records_after(after, up_to=up_to)]

        assert indices(0, 2) == [1, 2]
        assert indices(-1, 1) == [0, 1]
        assert indices(2, 2) == []
        assert replica.history.global_indices() == {0, 1, 2}
        assert len(redo) == 3

    def test_replay_threads_commit_timestamps_and_respects_bounds(self):
        cluster = build_cluster()
        cluster.submit("N1", "add", {"slot": 0})
        cluster.run(until=0.040)
        recovered = cluster.replica("N3")
        assert recovered.commit_frontier == 0, "setup: index 0 committed everywhere"
        cluster.crash_manager.crash_now("N3")
        cluster.submit("N1", "add", {"slot": 1})
        cluster.submit("N1", "add", {"slot": 0})
        cluster.run(until=0.100)
        assert recovered.commit_frontier == 0
        cluster.crash_manager.recover_now("N3")
        cluster.run_until_idle()
        # Only the suffix (0, 2] was transferred.
        assert recovered.metrics.count("state_transfer_commits") == 2
        donor = cluster.replica("N1")
        for committed, donated in donor.redo_log.records_after(0, up_to=2):
            for version in donated:
                replayed = recovered.store.version_at(version.key, version.created_index)
                assert replayed == version
                assert replayed.created_at == committed.committed_at > 0.0
        # Index 0 committed at N3 itself, at its own commit time.
        own = recovered.store.version_at("slot:0", 0)
        assert own.created_at != donor.store.version_at("slot:0", 0).created_at
        check_recovery_completeness(cluster).raise_if_violated()
