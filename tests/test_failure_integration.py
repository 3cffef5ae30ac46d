"""Failure-injection integration tests for the replicated database.

The paper's correctness argument assumes failure-free runs (Section 4); the
implementation nevertheless keeps working when a non-coordinator site crashes
and recovers, because the transport buffers envelopes for crashed sites and
delivers each envelope exactly once.  These tests exercise those paths and
the redo-log-based catch-up substrate.
"""

import pytest

from repro import BatchingConfig, ClusterConfig, ProcedureRegistry, ReplicatedDatabase
from repro.broadcast import OPTIMISTIC_DATA_KIND
from repro.core.config import BROADCAST_CONSERVATIVE, BROADCAST_OPTIMISTIC
from repro.database import MultiVersionStore
from repro.failure import CrashSchedule
from repro.network import LanMulticastLatency
from repro.verification import check_broadcast_properties, check_one_copy_serializability


def build_registry():
    registry = ProcedureRegistry()

    @registry.procedure("add", conflict_class=lambda p: f"C{p['slot'] % 3}", duration=0.002)
    def add(ctx, params):
        key = f"slot:{params['slot']}"
        ctx.write(key, ctx.read(key) + 1)

    return registry


def build_cluster(seed=4, site_count=4):
    return ReplicatedDatabase(
        ClusterConfig(
            site_count=site_count,
            seed=seed,
            broadcast=BROADCAST_OPTIMISTIC,
            latency_model=LanMulticastLatency(),
        ),
        build_registry(),
        initial_data={f"slot:{index}": 0 for index in range(6)},
    )


def submit_spread(cluster, count=30, spacing=0.002, sites=None):
    sites = sites or cluster.site_ids()
    for index in range(count):
        site = sites[index % len(sites)]
        cluster.kernel.schedule(
            index * spacing,
            lambda site=site, index=index: cluster.submit(site, "add", {"slot": index % 6}),
        )


class TestCrashRecovery:
    def test_non_coordinator_crash_and_recovery_catches_up(self):
        cluster = build_cluster()
        # Submit only from sites that stay up, so every transaction has a
        # live origin; N4 crashes during the run and recovers later.
        submit_spread(cluster, count=30, sites=["N1", "N2", "N3"])
        cluster.crash_manager.apply_schedule(
            CrashSchedule().crash_for("N4", at=0.010, duration=0.080)
        )
        cluster.run_until_idle()
        counts = cluster.committed_counts()
        assert counts["N1"] == 30
        # The crashed site received all buffered messages after recovery and
        # processed the same transactions.
        assert counts["N4"] == 30
        assert cluster.database_divergence() == {}
        check_one_copy_serializability(cluster.histories()).raise_if_violated()

    def test_crashed_site_does_not_affect_surviving_sites(self):
        cluster = build_cluster(seed=6)
        submit_spread(cluster, count=20, sites=["N1", "N2"])
        cluster.crash_manager.apply_schedule(CrashSchedule().crash("N3", at=0.005))
        cluster.run_until_idle()
        counts = cluster.committed_counts()
        assert counts["N1"] == 20
        assert counts["N2"] == 20
        assert counts["N4"] == 20
        surviving = {site: history for site, history in cluster.histories().items() if site != "N3"}
        check_one_copy_serializability(surviving).raise_if_violated()

    def test_partition_heals_and_replicas_converge(self):
        cluster = build_cluster(seed=8)
        submit_spread(cluster, count=20, sites=["N1", "N2", "N3"])
        cluster.kernel.schedule(0.005, lambda: cluster.transport.partitions.isolate(["N4"]))
        cluster.kernel.schedule(0.080, lambda: cluster.transport.partitions.heal())
        cluster.run_until_idle()
        assert cluster.committed_counts()["N4"] == 20
        assert cluster.database_divergence() == {}

    def test_redo_log_state_transfer_substrate(self):
        """A freshly initialised store can catch up from a peer's redo log."""
        cluster = build_cluster(seed=10)
        submit_spread(cluster, count=12, sites=["N1"])
        cluster.run_until_idle()
        donor = cluster.replica("N1")
        fresh = MultiVersionStore()
        fresh.load_many({f"slot:{index}": 0 for index in range(6)})
        replayed = 0
        for _, versions in donor.redo_log.records_after(-1, up_to=donor.commit_frontier):
            for version in versions:
                fresh.install(
                    version.key,
                    version.value,
                    created_index=version.created_index,
                    created_by=version.created_by,
                    created_at=version.created_at,
                )
                replayed += 1
        assert replayed == len(donor.redo_log) > 0
        assert fresh.dump_latest() == donor.database_contents()


class TestOriginCrash:
    @pytest.mark.parametrize("batching", [None, BatchingConfig(window=0.002)],
                             ids=["unbatched", "batched"])
    @pytest.mark.parametrize("broadcast", [BROADCAST_OPTIMISTIC, BROADCAST_CONSERVATIVE])
    @pytest.mark.parametrize("origin", ["N1", "N2"], ids=["coordinator", "follower"])
    def test_message_of_an_origin_crashing_right_after_sending_is_delivered(
        self, origin, broadcast, batching
    ):
        cluster = ReplicatedDatabase(
            ClusterConfig(site_count=3, seed=5, broadcast=broadcast, batching=batching),
            build_registry(),
            initial_data={f"slot:{index}": 0 for index in range(6)},
        )
        transport = cluster.transport
        multicast = transport.multicast
        crashed = []

        def crash_after_data(sender, payload, **kwargs):
            envelope_id = multicast(sender, payload, **kwargs)
            if sender == origin and kwargs.get("kind") == OPTIMISTIC_DATA_KIND and not crashed:
                # The origin dies the instant after its data left, before any
                # receiver has it; it never recovers.
                crashed.append(envelope_id)
                cluster.kernel.schedule(0.0, lambda: cluster.crash_manager.crash_now(origin))
            return envelope_id

        transport.multicast = crash_after_data
        submitted = []
        cluster.kernel.schedule(
            0.001, lambda: submitted.append(cluster.submit(origin, "add", {"slot": 1}))
        )
        submit_spread(cluster, count=6, spacing=0.004, sites=["N3"])
        cluster.run_until_idle()

        assert crashed
        correct = [site for site in cluster.site_ids() if site != origin]
        (transaction_id,) = submitted
        for site in correct:
            committed = cluster.replica(site).history.get(transaction_id)
            assert committed is not None
            assert committed.message_id in cluster.broadcast_endpoint(site).to_delivery_log
        assert set(cluster.committed_counts()[site] for site in correct) == {7}
        check_broadcast_properties(
            {site: cluster.broadcast_endpoint(site) for site in correct}
        ).raise_if_violated()


class TestMessageLoss:
    def test_lossy_network_still_reaches_agreement(self):
        cluster = ReplicatedDatabase(
            ClusterConfig(
                site_count=3,
                seed=11,
                broadcast=BROADCAST_OPTIMISTIC,
                loss_probability=0.2,
            ),
            build_registry(),
            initial_data={f"slot:{index}": 0 for index in range(6)},
        )
        submit_spread(cluster, count=20)
        cluster.run_until_idle()
        assert set(cluster.committed_counts().values()) == {20}
        assert cluster.database_divergence() == {}
        check_one_copy_serializability(cluster.histories()).raise_if_violated()
