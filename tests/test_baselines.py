"""Tests for the conservative and lazy-replication baselines.

Both are ``ClusterConfig(broadcast=...)`` values of the one cluster.  Lazy
replication is also the verifier's negative control: ``check_cluster`` must
reject its runs whenever they lose an update.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ClusterConfig, ProcedureRegistry, ReplicatedDatabase
from repro.broadcast import BatchingConfig
from repro.core.config import (
    BROADCAST_CONSERVATIVE,
    BROADCAST_LAZY,
    BROADCAST_OPTIMISTIC,
)
from repro.errors import ReplicationError
from repro.harness import run_experiment
from repro.network import ConstantLatency, LanMulticastLatency
from repro.observability.summary import finish_run
from repro.verification import check_cluster
from repro.workloads import (
    WorkloadGenerator,
    WorkloadSpec,
    build_conflict_map,
    build_initial_data,
    build_partitioned_registry,
)
from repro.workloads.procedures import UPDATE_PROCEDURE


def counter_registry():
    registry = ProcedureRegistry()

    @registry.procedure("bump", conflict_class=lambda p: f"C{p['slot']}", duration=0.002)
    def bump(ctx, params):
        key = f"slot:{params['slot']}"
        ctx.write(key, ctx.read(key) + params.get("amount", 1))

    @registry.procedure("read_slot", is_query=True, duration=0.001)
    def read_slot(ctx, params):
        return ctx.read(f"slot:{params['slot']}")

    return registry


def initial_slots(count=4):
    return {f"slot:{index}": 0 for index in range(count)}


def lost_updates(cluster):
    return sum(replica.metrics.count("lost_updates") for replica in cluster.replicas.values())


class TestConservativeBaseline:
    def test_conservative_cluster_behaves_identically_for_clients(self):
        cluster = ReplicatedDatabase(
            ClusterConfig(site_count=3, seed=1, broadcast=BROADCAST_CONSERVATIVE),
            counter_registry(),
            initial_data=initial_slots(),
        )
        cluster.submit("N2", "bump", {"slot": 1, "amount": 7})
        cluster.run_until_idle()
        for site in cluster.site_ids():
            assert cluster.replica(site).database_contents()["slot:1"] == 7


class TestLazyReplication:
    def build(self, seed=0, latency=None):
        return ReplicatedDatabase(
            ClusterConfig(
                site_count=3,
                seed=seed,
                broadcast=BROADCAST_LAZY,
                latency_model=latency or LanMulticastLatency(),
            ),
            counter_registry(),
            initial_data=initial_slots(),
        )

    def test_local_commit_then_asynchronous_propagation(self):
        lazy = self.build()
        transaction_id = lazy.submit("N1", "bump", {"slot": 0, "amount": 5})
        lazy.run_until_idle()
        assert lazy.replica("N1").submitted[transaction_id].latency == pytest.approx(0.002)
        for site in lazy.site_ids():
            assert lazy.replica(site).database_contents()["slot:0"] == 5
        assert check_cluster(lazy).ok

    def test_replicas_diverge_before_propagation_arrives(self):
        lazy = self.build(latency=ConstantLatency(0.050))
        lazy.submit("N1", "bump", {"slot": 0, "amount": 5})
        lazy.run(until=0.003)  # local commit done, propagation still in flight
        assert lazy.replica("N1").database_contents()["slot:0"] == 5
        assert lazy.replica("N2").database_contents()["slot:0"] == 0
        assert len(lazy.database_divergence()) == 1
        lazy.run_until_idle()
        assert lazy.database_divergence() == {}

    def test_conflicting_updates_cause_lost_updates(self):
        lazy = self.build()
        # Both sites increment the same slot concurrently; under lazy
        # last-writer-wins reconciliation one of the increments is lost.
        lazy.submit("N1", "bump", {"slot": 2, "amount": 1})
        lazy.submit("N2", "bump", {"slot": 2, "amount": 1})
        lazy.run_until_idle()
        final = lazy.replica("N3").database_contents()["slot:2"]
        assert final == 1  # a serializable system would produce 2
        assert lost_updates(lazy) >= 1
        assert not check_cluster(lazy).ok

    def test_queries_read_local_possibly_stale_state(self):
        lazy = self.build(latency=ConstantLatency(0.050))
        lazy.submit("N1", "bump", {"slot": 3, "amount": 9})
        lazy.run(until=0.003)
        local = lazy.submit_query("N1", "read_slot", {"slot": 3})
        remote = lazy.submit_query("N2", "read_slot", {"slot": 3})
        lazy.run(until=0.005)
        assert (local.result, remote.result) == (9, 0)

    def test_client_latencies_exclude_propagation(self):
        lazy = self.build(latency=ConstantLatency(0.100))
        for index in range(5):
            lazy.submit("N1", "bump", {"slot": index % 4})
        lazy.run_until_idle()
        latencies = lazy.all_client_latencies()
        assert len(latencies) == 5
        assert all(latency == pytest.approx(0.002) for latency in latencies)

    def test_query_and_update_validation(self):
        lazy = self.build()
        with pytest.raises(ReplicationError):
            lazy.submit("N1", "read_slot", {"slot": 0})
        with pytest.raises(ReplicationError):
            lazy.submit_query("N1", "bump", {"slot": 0})
        with pytest.raises(ReplicationError):
            lazy.replica("N9")

    def test_invalid_site_count_rejected(self):
        with pytest.raises(ReplicationError):
            ClusterConfig(site_count=0, broadcast=BROADCAST_LAZY)

    def test_a_stale_read_that_every_site_orders_alike_is_rejected(self):
        # N2's increment reads before N1's arrives and commits after it, so
        # both sites install N1's write first and one increment is lost.  N2
        # records N1's write behind its own (which never saw it), so it
        # commits the class and writes the key out of index order, and its
        # increment read the initial version although N1's write comes first.
        lazy = ReplicatedDatabase(
            ClusterConfig(
                site_count=2,
                broadcast=BROADCAST_LAZY,
                latency_model=ConstantLatency(0.0005),
            ),
            counter_registry(),
            initial_data=initial_slots(),
        )
        lazy.kernel.schedule_at(0.0, lambda: lazy.submit("N1", "bump", {"slot": 0}))
        lazy.kernel.schedule_at(0.001, lambda: lazy.submit("N2", "bump", {"slot": 0}))
        lazy.run_until_idle()
        assert lazy.replica("N1").database_contents()["slot:0"] == 1
        assert lost_updates(lazy) == 2
        histories = lazy.histories()
        assert histories["N1"].transaction_ids() == ["T:N1:1", "T:N2:2"]
        assert histories["N2"].transaction_ids() == ["T:N2:2", "T:N1:1"]
        report = check_cluster(lazy)
        assert not report.ok
        assert report.violations == [
            "shard global: site N2 commits class C0 out of index order: "
            "T:N1:1 (index 0) after T:N2:2 (index 1)",
            "shard global: site N2 writes 'slot:0' out of index order: "
            "T:N1:1 (index 0) after T:N2:2 (index 1)",
            "shard global: site N2: T:N2:2 (index 1) read 'slot:0' at version -1, "
            "but its last writer before it is at index 0 (stale read)",
        ]

    def test_an_older_write_set_loses_and_the_store_cannot_donate_it(self):
        # N1's write set reaches N2 only after N2's newer increment committed.
        lazy = self.build(latency=ConstantLatency(0.002))
        lazy.submit("N1", "bump", {"slot": 1, "amount": 1})
        lazy.kernel.schedule_at(
            0.001, lambda: lazy.submit("N2", "bump", {"slot": 1, "amount": 10})
        )
        lazy.run_until_idle()
        # N2's increment committed last, so it wins everywhere.
        values = [lazy.replica(site).database_contents()["slot:1"] for site in lazy.site_ids()]
        assert values == [10, 10, 10]
        violations = check_cluster(lazy).recovery.violations
        assert len(violations) == 1
        assert "store of N2 lacks 1 committed versions" in violations[0]

    def test_remote_write_sets_advance_the_snapshot_frontier(self):
        lazy = self.build(latency=ConstantLatency(0.001))
        lazy.submit("N1", "bump", {"slot": 0, "amount": 5})
        lazy.run_until_idle()
        assert [lazy.replica(site).commit_frontier for site in lazy.site_ids()] == [0, 0, 0]
        query = lazy.submit_query("N3", "read_slot", {"slot": 0})
        lazy.run_until_idle()
        assert query.result == 5

    def test_the_lazy_row_reports_check_cluster_even_without_a_lost_update(self):
        # One update per site on two sites: both land in one conflict class
        # and commit in opposite orders at the two sites.  Their keys are
        # disjoint, so nothing is lost, but the class orders differ.
        result = run_experiment("lazy", updates_per_site=1, site_count=2)
        rows = {row["system"]: row for row in result.rows}
        assert rows["lazy"]["lost_updates"] == 0
        assert rows["lazy"]["one_copy_serializable"] is False
        assert rows["otp"]["one_copy_serializable"] is True


class TestLazySettingsRejected:
    def test_lazy_refuses_batching(self):
        with pytest.raises(ReplicationError, match="batching"):
            ClusterConfig(broadcast=BROADCAST_LAZY, batching=BatchingConfig())

    def test_lazy_refuses_the_voting_ordering_mode(self):
        with pytest.raises(ReplicationError, match="voting"):
            ClusterConfig(broadcast=BROADCAST_LAZY, ordering_mode="voting")


def _run(broadcast, spec, site_count, seed):
    cluster = ReplicatedDatabase(
        ClusterConfig(site_count=site_count, seed=seed, broadcast=broadcast),
        build_partitioned_registry(spec),
        conflict_map=build_conflict_map(spec),
        initial_data=build_initial_data(spec),
    )
    WorkloadGenerator(spec).apply(cluster)
    return cluster, finish_run(cluster).verification


class TestLazyNegativeControl:
    """``check_cluster`` rejects every lazy run that loses an update."""

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        site_count=st.integers(2, 4),
        class_count=st.integers(1, 8),
        interval_ms=st.floats(0.5, 5.0),
        updates_per_site=st.integers(1, 20),
        seed=st.integers(0, 2**16),
    )
    def test_check_cluster_rejects_every_lazy_run_with_a_lost_update(
        self, site_count, class_count, interval_ms, updates_per_site, seed
    ):
        spec = WorkloadSpec(
            class_count=class_count,
            updates_per_site=updates_per_site,
            update_interval=interval_ms / 1000.0,
        )
        lazy, report = _run(BROADCAST_LAZY, spec, site_count, seed)
        if lost_updates(lazy) or lazy.database_divergence():
            assert not report.ok
        assert _run(BROADCAST_OPTIMISTIC, spec, site_count, seed)[1].ok

    def test_a_lazy_run_with_one_submitting_site_verifies(self):
        # Submissions 10 ms apart, far wider than any LAN delay: every site
        # applies N1's write sets in N1's commit order, nothing is lost.
        spec = WorkloadSpec(class_count=2, updates_per_site=0)
        lazy = ReplicatedDatabase(
            ClusterConfig(site_count=3, seed=5, broadcast=BROADCAST_LAZY),
            build_partitioned_registry(spec),
            conflict_map=build_conflict_map(spec),
            initial_data=build_initial_data(spec),
        )
        for index in range(12):
            parameters = {"class_index": index % 2, "object_indexes": [0, 1], "amount": 1}
            lazy.kernel.schedule_at(
                0.010 * index,
                lambda parameters=parameters: lazy.submit("N1", UPDATE_PROCEDURE, parameters),
            )
        report = finish_run(lazy).verification
        assert lost_updates(lazy) == 0
        assert report.ok, report.violations
        assert len(lazy.replica("N3").history) == 12
