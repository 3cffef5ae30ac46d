"""Tests for the conservative and lazy-replication baselines."""

import pytest

from repro import ClusterConfig, ProcedureRegistry, ReplicatedDatabase
from repro.baselines import LazyReplicatedDatabase
from repro.core.config import BROADCAST_CONSERVATIVE
from repro.errors import ReplicationError
from repro.network import ConstantLatency, LanMulticastLatency


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
        return LazyReplicatedDatabase(
            site_count=3,
            seed=seed,
            registry=counter_registry(),
            initial_data=initial_slots(),
            latency_model=latency or LanMulticastLatency(),
        )

    def test_local_commit_then_asynchronous_propagation(self):
        lazy = self.build()
        record = lazy.submit("N1", "bump", {"slot": 0, "amount": 5})
        lazy.run_until_idle()
        assert record.latency == pytest.approx(0.002)
        for site in lazy.site_ids():
            assert lazy.replica(site).database_contents()["slot:0"] == 5

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
        assert lazy.total_lost_updates() >= 1

    def test_queries_read_local_possibly_stale_state(self):
        lazy = self.build(latency=ConstantLatency(0.050))
        lazy.submit("N1", "bump", {"slot": 3, "amount": 9})
        lazy.run(until=0.003)
        assert lazy.submit_query("N1", "read_slot", {"slot": 3}) == 9
        assert lazy.submit_query("N2", "read_slot", {"slot": 3}) == 0

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
            LazyReplicatedDatabase(site_count=0, registry=counter_registry())
