"""Integration tests for the replica manager and the cluster facade."""

from dataclasses import fields

import pytest

from repro import (
    BROADCAST_CONSERVATIVE,
    BROADCAST_OPTIMISTIC,
    BatchingConfig,
    ClusterConfig,
    ProcedureRegistry,
    ReplicatedDatabase,
    ShardingConfig,
)
from repro.core.admission import AdmissionConfig
from repro.core.config import ProtocolConfig
from repro.errors import ReplicationError
from repro.failure.suspicion import FailureDetectionConfig
from repro.network import ConstantLatency, LanMulticastLatency
from repro.network.latency import GeoTopology
from repro.observability.trace import TransactionTracer
from repro.verification import check_broadcast_properties, check_one_copy_serializability


def bank_registry():
    registry = ProcedureRegistry()

    @registry.procedure("deposit", conflict_class=lambda p: f"C{p['branch']}", duration=0.002)
    def deposit(ctx, params):
        key = f"branch{params['branch']}:acct{params['account']}"
        balance = ctx.read(key)
        ctx.write(key, balance + params["amount"])
        return balance + params["amount"]

    @registry.procedure("transfer", conflict_class=lambda p: f"C{p['branch']}", duration=0.003)
    def transfer(ctx, params):
        source = f"branch{params['branch']}:acct{params['source']}"
        target = f"branch{params['branch']}:acct{params['target']}"
        amount = params["amount"]
        ctx.write(source, ctx.read(source) - amount)
        ctx.write(target, ctx.read(target) + amount)
        return amount

    @registry.procedure("branch_total", is_query=True, duration=0.001)
    def branch_total(ctx, params):
        return sum(
            ctx.read(f"branch{params['branch']}:acct{account}") for account in range(4)
        )

    return registry


def initial_bank_data(branches=3, accounts=4, balance=100):
    return {
        f"branch{branch}:acct{account}": balance
        for branch in range(branches)
        for account in range(accounts)
    }


def build_cluster(**overrides):
    config = ClusterConfig(
        site_count=overrides.pop("site_count", 4),
        seed=overrides.pop("seed", 2),
        broadcast=overrides.pop("broadcast", BROADCAST_OPTIMISTIC),
        **overrides,
    )
    return ReplicatedDatabase(config, bank_registry(), initial_data=initial_bank_data())


class TestBasicOperation:
    def test_update_is_applied_at_every_site(self):
        cluster = build_cluster()
        cluster.submit("N1", "deposit", {"branch": 0, "account": 1, "amount": 25})
        cluster.run_until_idle()
        for site in cluster.site_ids():
            assert cluster.replica(site).database_contents()["branch0:acct1"] == 125

    def test_commit_counts_match_across_sites(self):
        cluster = build_cluster()
        for index in range(20):
            site = cluster.site_ids()[index % 4]
            cluster.submit(site, "deposit", {"branch": index % 3, "account": index % 4, "amount": 1})
        cluster.run_until_idle()
        counts = set(cluster.committed_counts().values())
        assert counts == {20}

    def test_client_latency_recorded_at_origin(self):
        cluster = build_cluster()
        cluster.submit("N2", "deposit", {"branch": 1, "account": 0, "amount": 5})
        cluster.run_until_idle()
        latencies = cluster.replica("N2").client_latencies()
        assert len(latencies) == 1
        assert latencies[0] > 0.0

    def test_local_commit_is_stamped_on_the_submitted_record(self):
        cluster = build_cluster()
        txn_id = cluster.submit("N1", "deposit", {"branch": 0, "account": 0, "amount": 1})
        record = cluster.replica("N1").submitted[txn_id]
        assert record.committed_at is None
        cluster.run_until_idle()
        assert record.committed_at > record.submitted_at

    def test_submitting_query_as_update_rejected(self):
        cluster = build_cluster()
        with pytest.raises(ReplicationError):
            cluster.submit("N1", "branch_total", {"branch": 0})

    def test_submitting_update_as_query_rejected(self):
        cluster = build_cluster()
        with pytest.raises(ReplicationError):
            cluster.submit_query("N1", "deposit", {"branch": 0, "account": 0, "amount": 1})

    def test_unknown_site_rejected(self):
        cluster = build_cluster()
        with pytest.raises(ReplicationError):
            cluster.replica("N99")

    def test_conservation_of_money_under_concurrent_transfers(self):
        cluster = build_cluster()
        sites = cluster.site_ids()
        for index in range(40):
            site = sites[index % len(sites)]
            cluster.kernel.schedule(
                index * 0.001,
                lambda site=site, index=index: cluster.submit(
                    site,
                    "transfer",
                    {
                        "branch": index % 3,
                        "source": index % 4,
                        "target": (index + 1) % 4,
                        "amount": 5,
                    },
                ),
            )
        cluster.run_until_idle()
        expected_total = 3 * 4 * 100
        for site in sites:
            contents = cluster.replica(site).database_contents()
            assert sum(contents.values()) == expected_total

    def test_replicas_converge_to_identical_state(self):
        cluster = build_cluster(seed=5)
        sites = cluster.site_ids()
        for index in range(30):
            cluster.kernel.schedule(
                index * 0.0005,
                lambda site=sites[index % 4], index=index: cluster.submit(
                    site, "deposit", {"branch": index % 3, "account": index % 4, "amount": 2}
                ),
            )
        cluster.run_until_idle()
        assert cluster.database_divergence() == {}


class TestCorrectnessUnderLoad:
    def run_loaded_cluster(self, broadcast, seed=9, jitter=0.0004):
        cluster = ReplicatedDatabase(
            ClusterConfig(
                site_count=4,
                seed=seed,
                broadcast=broadcast,
                latency_model=LanMulticastLatency(receiver_jitter_mean=jitter),
            ),
            bank_registry(),
            initial_data=initial_bank_data(),
        )
        sites = cluster.site_ids()
        for index in range(60):
            cluster.kernel.schedule(
                index * 0.0004,
                lambda site=sites[index % 4], index=index: cluster.submit(
                    site, "deposit", {"branch": index % 3, "account": index % 4, "amount": 1}
                ),
            )
        cluster.run_until_idle()
        return cluster

    @pytest.mark.parametrize("broadcast", [BROADCAST_OPTIMISTIC, BROADCAST_CONSERVATIVE])
    def test_one_copy_serializability_holds(self, broadcast):
        cluster = self.run_loaded_cluster(broadcast)
        report = check_one_copy_serializability(
            cluster.histories(),
            definitive_order=[
                cluster.broadcast_endpoint(cluster.coordinator_site())
                .message(message_id)
                .payload.transaction_id
                for message_id in cluster.broadcast_endpoint(
                    cluster.coordinator_site()
                ).to_delivery_log
            ],
        )
        report.raise_if_violated()

    def test_broadcast_properties_hold(self):
        cluster = self.run_loaded_cluster(BROADCAST_OPTIMISTIC)
        endpoints = {site: cluster.broadcast_endpoint(site) for site in cluster.site_ids()}
        check_broadcast_properties(endpoints).raise_if_violated()

    def test_optimistic_cluster_reorders_but_stays_consistent(self):
        cluster = self.run_loaded_cluster(BROADCAST_OPTIMISTIC, jitter=0.0015)
        # With this jitter some transactions are executed in the wrong
        # tentative order and must be aborted/rescheduled (CC8)...
        assert cluster.total_reorder_aborts() > 0
        # ...but all replicas still converge and histories stay equivalent.
        assert cluster.database_divergence() == {}
        check_one_copy_serializability(cluster.histories()).raise_if_violated()
        cluster.check_scheduler_invariants()

    def test_conservative_cluster_never_reorders(self):
        cluster = self.run_loaded_cluster(BROADCAST_CONSERVATIVE, jitter=0.0015)
        assert cluster.total_reorder_aborts() == 0

    def test_optimistic_latency_beats_conservative_on_same_workload(self):
        optimistic = self.run_loaded_cluster(BROADCAST_OPTIMISTIC, seed=21)
        conservative = self.run_loaded_cluster(BROADCAST_CONSERVATIVE, seed=21)
        mean = lambda values: sum(values) / len(values)
        assert mean(optimistic.all_client_latencies()) < mean(
            conservative.all_client_latencies()
        )


class TestQueries:
    def test_query_reads_consistent_snapshot(self):
        cluster = build_cluster()
        cluster.submit("N1", "deposit", {"branch": 0, "account": 0, "amount": 50})
        cluster.run_until_idle()
        execution = cluster.submit_query("N3", "branch_total", {"branch": 0})
        cluster.run_until_idle()
        assert execution.result == 450

    def test_query_does_not_block_updates(self):
        cluster = build_cluster()
        cluster.submit_query("N1", "branch_total", {"branch": 0})
        cluster.submit("N1", "deposit", {"branch": 0, "account": 0, "amount": 10})
        cluster.run_until_idle()
        assert cluster.replica("N1").database_contents()["branch0:acct0"] == 110

    def test_query_snapshot_isolated_from_later_updates(self):
        cluster = build_cluster()
        # Submit the query first, then a flurry of updates; the query index is
        # taken at submission time, so it must not see any of those updates.
        execution = cluster.submit_query("N2", "branch_total", {"branch": 1})
        for _ in range(5):
            cluster.submit("N2", "deposit", {"branch": 1, "account": 2, "amount": 100})
        cluster.run_until_idle()
        assert execution.result == 400

    def test_metrics_track_queries(self):
        cluster = build_cluster()
        cluster.submit_query("N4", "branch_total", {"branch": 2})
        cluster.run_until_idle()
        assert cluster.replica("N4").metrics.count("queries_completed") == 1


class TestSameSeedSameIds:
    @pytest.mark.parametrize("batching", [None, BatchingConfig(window=0.002)],
                             ids=["unbatched", "batched"])
    def test_a_second_build_in_one_process_assigns_the_same_ids(self, batching):
        def run():
            cluster = build_cluster(seed=7, batching=batching)
            for index in range(12):
                site = cluster.site_ids()[index % 4]
                cluster.kernel.schedule(
                    0.001 * index,
                    lambda site=site, index=index: cluster.submit(
                        site, "deposit", {"branch": index % 3, "account": 1, "amount": 5}
                    ),
                )
            cluster.run_until_idle()
            return {
                site: (
                    cluster.replica(site).history.transaction_ids(),
                    cluster.broadcast_endpoint(site).to_delivery_log,
                )
                for site in cluster.site_ids()
            }

        first, second = run(), run()
        assert first == second
        # Each build numbers its ids from 1, whatever ran before it.
        assert "T:N1:1" in first["N1"][0]


#: One non-default value per :class:`ProtocolConfig` field.
PROTOCOL_SENTINELS = {
    "seed": 41,
    "broadcast": BROADCAST_CONSERVATIVE,
    "ordering_mode": "voting",
    "latency_model": ConstantLatency(0.002),
    "voting_timeout": 0.123,
    "batching": BatchingConfig(window=0.002),
    "medium_frame_time": 0.0003,
    "tracer": TransactionTracer(),
    "topology": GeoTopology.striped(("eu", "us")),
    "failure_detection": FailureDetectionConfig(),
    "admission": AdmissionConfig(high_watermark=8, low_watermark=4),
}


class TestConfigValidation:
    def test_invalid_site_count_rejected(self):
        with pytest.raises(ReplicationError):
            ClusterConfig(site_count=0)

    def test_invalid_broadcast_rejected(self):
        with pytest.raises(ReplicationError):
            ClusterConfig(broadcast="carrier-pigeon")

    def test_conservative_voting_rejected(self):
        with pytest.raises(ReplicationError):
            ClusterConfig(broadcast="conservative", ordering_mode="voting")
        with pytest.raises(ReplicationError):
            ShardingConfig(broadcast="conservative", ordering_mode="voting")

    def test_negative_frame_time_rejected_by_both_shapes(self):
        for config_class in (ClusterConfig, ShardingConfig):
            with pytest.raises(ReplicationError):
                config_class(medium_frame_time=-0.001)

    def test_subclasses_add_only_their_shape_fields(self):
        base = {field.name for field in fields(ProtocolConfig)}
        assert len(base) == 11
        cluster = {field.name for field in fields(ClusterConfig)}
        sharding = {field.name for field in fields(ShardingConfig)}
        assert cluster - base == {"site_count", "site_prefix"}
        assert sharding - base == {"shard_count", "sites_per_shard"}

    def test_sentinels_cover_every_protocol_field(self):
        assert PROTOCOL_SENTINELS.keys() == {f.name for f in fields(ProtocolConfig)}

    @pytest.mark.parametrize("name", sorted(PROTOCOL_SENTINELS))
    def test_protocol_field_reaches_every_shard_group(self, name):
        value = PROTOCOL_SENTINELS[name]
        assert getattr(ShardingConfig(), name) != value  # a non-default sentinel
        sharding = ShardingConfig(shard_count=2, sites_per_shard=5, **{name: value})
        for shard_index in range(2):
            group = sharding.shard_cluster_config(shard_index)
            assert getattr(group, name) == value
            assert group.site_count == 5
            assert group.site_prefix == f"S{shard_index + 1}:"

    def test_site_ids_naming(self):
        assert ClusterConfig(site_count=3).site_ids() == ["N1", "N2", "N3"]

    def test_default_latency_model_installed(self):
        config = ClusterConfig()
        assert isinstance(config.latency_model, LanMulticastLatency)
