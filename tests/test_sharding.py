"""Tests for the sharding subsystem: shard map, router, facade, verification."""

import pytest

from repro.core.config import BROADCAST_CONSERVATIVE, ShardingConfig
from repro.errors import ReplicationError, ShardingError, WorkloadError
from repro.harness import summarize_run
from repro.sharding import ShardMap, ShardedCluster
from repro.verification import (
    check_cluster,
    check_cross_shard_query_consistency,
    check_sharded_one_copy_serializability,
)
from repro.workloads import (
    READ_CLASSES_QUERY,
    UPDATE_PROCEDURE,
    ShardedWorkloadGenerator,
    ShardedWorkloadSpec,
    build_conflict_map,
    build_initial_data,
    build_partitioned_registry,
    build_shard_map,
    partition_class_id,
)


class TestShardMap:
    def test_contiguous_assignment_blocks(self):
        shard_map = ShardMap.contiguous(["C0", "C1", "C2", "C3"], ["S1", "S2"])
        assert shard_map.classes_of_shard("S1") == ["C0", "C1"]
        assert shard_map.classes_of_shard("S2") == ["C2", "C3"]
        assert shard_map.shard_of_class("C3") == "S2"

    def test_uneven_contiguous_assignment_covers_every_class(self):
        shard_map = ShardMap.contiguous(["C0", "C1", "C2", "C3", "C4"], ["S1", "S2"])
        assert shard_map.class_ids() == ["C0", "C1", "C2", "C3", "C4"]
        assert set(shard_map.shard_ids()) == {"S1", "S2"}

    def test_double_assignment_rejected(self):
        shard_map = ShardMap()
        shard_map.assign("C0", "S1")
        with pytest.raises(ShardingError):
            shard_map.assign("C0", "S2")

    def test_unassigned_class_rejected(self):
        with pytest.raises(ShardingError):
            ShardMap().shard_of_class("C_missing")

    def test_shard_of_key_via_conflict_map(self):
        spec = ShardedWorkloadSpec(shard_count=2, classes_per_shard=2)
        conflict_map = build_conflict_map(spec.base_spec())
        shard_map = build_shard_map(spec)
        assert shard_map.shard_of_key("part0:obj3", conflict_map) == "S1"
        assert shard_map.shard_of_key("part3:obj0", conflict_map) == "S2"
        assert shard_map.shard_of_key("unowned:obj0", conflict_map) is None

    def test_split_by_shard_groups_query_classes(self):
        shard_map = ShardMap.contiguous(["C0", "C1", "C2", "C3"], ["S1", "S2"])
        split = shard_map.split_by_shard(["C1", "C2", "C3"])
        assert split == {"S1": ["C1"], "S2": ["C2", "C3"]}


class TestShardingConfig:
    def test_shard_ids_and_site_prefixes(self):
        config = ShardingConfig(shard_count=2, sites_per_shard=3)
        assert config.shard_ids() == ["S1", "S2"]
        assert config.shard_cluster_config(1).site_ids() == ["S2:N1", "S2:N2", "S2:N3"]

    def test_invalid_configs_rejected(self):
        with pytest.raises(ReplicationError):
            ShardingConfig(shard_count=0)
        with pytest.raises(ReplicationError):
            ShardingConfig(sites_per_shard=0)
        with pytest.raises(ReplicationError):
            ShardingConfig(broadcast="bogus")
        with pytest.raises(ReplicationError):
            ShardingConfig().shard_cluster_config(5)


class TestShardedWorkloadSpec:
    def test_class_count_is_per_shard_times_shards(self):
        spec = ShardedWorkloadSpec(shard_count=4, classes_per_shard=3)
        assert spec.class_count == 12
        assert spec.total_updates() == 4 * spec.updates_per_shard

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shard_count": 0},
            {"classes_per_shard": 0},
            {"updates_per_shard": -1},
            {"queries": -1},
            {"update_interval": -0.1},
            {"query_span": 0},
            {"class_skew": -0.5},
            {"class_skew": float("nan")},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(WorkloadError):
            ShardedWorkloadSpec(**kwargs)

    def test_base_spec_mirrors_database_shape(self):
        spec = ShardedWorkloadSpec(shard_count=3, classes_per_shard=2)
        base = spec.base_spec()
        assert base.class_count == 6
        assert base.objects_per_class == ShardedWorkloadSpec.objects_per_class == 10


def build_sharded_cluster(spec, *, seed=5, broadcast=None):
    config = ShardingConfig(
        shard_count=spec.shard_count,
        sites_per_shard=3,
        seed=seed,
        **({"broadcast": broadcast} if broadcast else {}),
    )
    base = spec.base_spec()
    return ShardedCluster(
        config,
        build_partitioned_registry(base),
        conflict_map=build_conflict_map(base),
        shard_map=build_shard_map(spec),
        initial_data=build_initial_data(base),
    )


class TestTransactionRouter:
    def test_update_routed_to_owning_shard(self):
        spec = ShardedWorkloadSpec(shard_count=2, classes_per_shard=2)
        cluster = build_sharded_cluster(spec)
        routed = cluster.submit_update(
            UPDATE_PROCEDURE, {"class_index": 3, "object_indexes": [0], "amount": 1}
        )
        assert routed.conflict_class == partition_class_id(3)
        assert routed.shard_id == "S2"
        assert routed.site_id.startswith("S2:")
        cluster.run_until_idle()
        summary = summarize_run(cluster, check_cluster(cluster))
        assert {gid: g.committed for gid, g in summary.groups.items()} == {
            "S1": 0,
            "S2": 1,
        }

    def test_router_and_group_pick_the_same_site_around_a_crash(self):
        spec = ShardedWorkloadSpec(shard_count=2, classes_per_shard=2)
        cluster = build_sharded_cluster(spec)
        shard = cluster.shard("S2")
        shard.crash_manager.crash_now("S2:N2")
        for start in range(6):
            picked = cluster.router._pick_site("S2", start)
            assert picked == shard.open_site_from(start)
            assert picked != "S2:N2"
        # Unpinned picks rotate the router's own per-shard cursor, not the group's.
        rotated = [cluster.router._pick_site("S2", None) for _ in range(3)]
        assert rotated == [shard.open_site_from(index) for index in range(3)]
        for site_id in shard.site_ids():
            shard.crash_manager.crash_now(site_id)
        assert cluster.router._pick_site("S2", 0) is None is shard.open_site_from(0)

    def test_query_fans_out_to_every_touched_shard(self):
        spec = ShardedWorkloadSpec(shard_count=2, classes_per_shard=2)
        cluster = build_sharded_cluster(spec)
        query = cluster.submit_query(
            READ_CLASSES_QUERY, {"class_indexes": [1, 2]}
        )
        cluster.run_until_idle()
        assert query.is_complete
        assert sorted(query.shard_ids) == ["S1", "S2"]
        # 2 classes x 10 objects x initial value 100.
        assert query.merged_result == 2 * 10 * 100

    def test_single_shard_query_has_one_subquery(self):
        spec = ShardedWorkloadSpec(shard_count=2, classes_per_shard=2)
        cluster = build_sharded_cluster(spec)
        query = cluster.submit_query(READ_CLASSES_QUERY, {"class_indexes": [0, 1]})
        cluster.run_until_idle()
        assert [sub.shard_id for sub in query.subqueries] == ["S1"]
        assert query.merged_result == 2 * 10 * 100

    def test_legs_keep_a_query_s_other_parameters_once_and_their_own_window(self):
        spec = ShardedWorkloadSpec(shard_count=2, classes_per_shard=2)
        cluster = build_sharded_cluster(spec)
        parameters = {"class_indexes": [3, 0, 2], "tag": "audit"}
        query = cluster.submit_query(READ_CLASSES_QUERY, parameters)
        cluster.run_until_idle()
        first, second = query.subqueries
        assert first.other_parameters is second.other_parameters
        assert first.other_parameters == {"tag": "audit"}
        assert [leg.parameters for leg in query.subqueries] == [
            {"tag": "audit", "class_indexes": (0,)},
            {"tag": "audit", "class_indexes": (2, 3)},
        ]
        # Each read builds a fresh dict; the caller's dict is left as it was.
        assert first.parameters is not first.parameters
        assert parameters == {"class_indexes": [3, 0, 2], "tag": "audit"}
        assert query.merged_result == 3 * 10 * 100
        assert check_cluster(cluster).ok

    def test_router_rejects_mismatched_procedure_kinds(self):
        spec = ShardedWorkloadSpec(shard_count=2)
        cluster = build_sharded_cluster(spec)
        with pytest.raises(ShardingError):
            cluster.submit_update(READ_CLASSES_QUERY, {"class_indexes": [0]})
        with pytest.raises(ShardingError):
            cluster.submit_query(
                UPDATE_PROCEDURE, {"class_index": 0, "object_indexes": [0]}
            )

    def test_site_index_pins_submission_site(self):
        spec = ShardedWorkloadSpec(shard_count=2)
        cluster = build_sharded_cluster(spec)
        routed = cluster.submit_update(
            UPDATE_PROCEDURE,
            {"class_index": 0, "object_indexes": [0], "amount": 1},
            site_index=1,
        )
        assert routed.site_id == "S1:N2"


class TestShardedCluster:
    def test_initial_data_is_partitioned_by_shard(self):
        spec = ShardedWorkloadSpec(shard_count=2, classes_per_shard=1)
        cluster = build_sharded_cluster(spec)
        s1_contents = cluster.shard("S1").replica("S1:N1").database_contents()
        s2_contents = cluster.shard("S2").replica("S2:N1").database_contents()
        assert set(s1_contents) == {f"part0:obj{index}" for index in range(10)}
        assert set(s2_contents) == {f"part1:obj{index}" for index in range(10)}

    def test_unowned_initial_key_rejected(self):
        spec = ShardedWorkloadSpec(shard_count=2)
        base = spec.base_spec()
        with pytest.raises(ShardingError):
            ShardedCluster(
                ShardingConfig(shard_count=2, sites_per_shard=2),
                build_partitioned_registry(base),
                conflict_map=build_conflict_map(base),
                shard_map=build_shard_map(spec),
                initial_data={"rogue:obj0": 1},
            )

    def test_unassigned_class_rejected_at_assembly(self):
        spec = ShardedWorkloadSpec(shard_count=2, classes_per_shard=2)
        base = spec.base_spec()
        partial_map = ShardMap.contiguous(["C0", "C1", "C2"], ["S1", "S2"])  # C3 missing
        with pytest.raises(ShardingError):
            ShardedCluster(
                ShardingConfig(shard_count=2, sites_per_shard=2),
                build_partitioned_registry(base),
                conflict_map=build_conflict_map(base),
                shard_map=partial_map,
            )

    def test_shard_broadcast_groups_are_isolated(self):
        """A shard's sites must never deliver another shard's transactions."""
        spec = ShardedWorkloadSpec(shard_count=2, classes_per_shard=2, updates_per_shard=10)
        cluster = build_sharded_cluster(spec)
        ShardedWorkloadGenerator(spec).apply(cluster)
        cluster.run_until_idle()
        for shard_id, shard in cluster.shards.items():
            submitted = {
                transaction_id: record.request.conflict_class
                for site_id in shard.site_ids()
                for transaction_id, record in shard.replica(site_id).submitted.items()
            }
            # The router sent the shard only updates of classes it owns.
            assert submitted
            assert {cluster.shard_map.shard_of_class(c) for c in submitted.values()} == {
                shard_id
            }
            own_transactions = set(submitted)
            for site_id in shard.site_ids():
                history = shard.replica(site_id).history
                assert set(history.ids) == own_transactions

    def test_end_to_end_sharded_run_verifies(self):
        spec = ShardedWorkloadSpec(
            shard_count=3,
            classes_per_shard=2,
            updates_per_shard=15,
            queries=6,
            query_span=3,
            update_duration=0.001,
        )
        cluster = build_sharded_cluster(spec, seed=11)
        plan = ShardedWorkloadGenerator(spec).apply(cluster)
        cluster.run_until_idle()
        cluster.check_scheduler_invariants()

        assert cluster.database_divergence() == {}
        report = check_cluster(cluster)
        report.raise_if_violated()
        assert summarize_run(cluster, report).committed == plan.update_count == 45
        assert report.queries.queries_checked == 6

    def test_bursty_queries_racing_updates_stay_consistent(self):
        """Regression: commits of different classes can complete out of
        definitive order, so the query frontier must not jump gaps — a query
        snapshot taken at a jumped index would miss a smaller-indexed
        transaction that installs its versions after the query read."""
        spec = ShardedWorkloadSpec(
            shard_count=4,
            classes_per_shard=2,
            updates_per_shard=50,
            update_interval=0.001,
            queries=40,
            query_interval=0.002,
            query_span=5,
            class_skew=1.5,
            update_duration=0.003,
        )
        cluster = build_sharded_cluster(spec, seed=77)
        ShardedWorkloadGenerator(spec).apply(cluster)
        cluster.run_until_idle()
        report = check_cluster(cluster)
        report.raise_if_violated()
        assert report.queries.queries_checked == 40

    def test_conservative_broadcast_also_verifies(self):
        spec = ShardedWorkloadSpec(shard_count=2, updates_per_shard=8, queries=3)
        cluster = build_sharded_cluster(spec, broadcast=BROADCAST_CONSERVATIVE)
        ShardedWorkloadGenerator(spec).apply(cluster)
        cluster.run_until_idle()
        check_cluster(cluster).raise_if_violated()

    def test_same_seed_is_deterministic(self):
        spec = ShardedWorkloadSpec(shard_count=2, updates_per_shard=12, queries=4)

        def run():
            cluster = build_sharded_cluster(spec, seed=9)
            ShardedWorkloadGenerator(spec).apply(cluster)
            cluster.run_until_idle()
            contents = {
                shard_id: shard.replica(shard.site_ids()[0]).database_contents()
                for shard_id, shard in cluster.shards.items()
            }
            return contents, cluster.now

        first, second = run(), run()
        assert first == second


class TestShardedVerification:
    def build_finished_cluster(self, **spec_kwargs):
        spec = ShardedWorkloadSpec(
            shard_count=2, updates_per_shard=10, queries=4, **spec_kwargs
        )
        cluster = build_sharded_cluster(spec, seed=3)
        ShardedWorkloadGenerator(spec).apply(cluster)
        cluster.run_until_idle()
        return cluster

    def test_one_copy_report_covers_every_shard(self):
        cluster = self.build_finished_cluster()
        report = check_sharded_one_copy_serializability(cluster)
        assert report.ok
        assert set(report.per_shard_one_copy) == {"S1", "S2"}
        assert set(report.per_shard_broadcast) == {"S1", "S2"}
        for one_copy in report.per_shard_one_copy.values():
            assert one_copy.ok

    def test_query_consistency_detects_tampered_merge(self):
        cluster = self.build_finished_cluster(query_span=3)
        clean = check_cross_shard_query_consistency(cluster)
        assert clean.ok and clean.queries_checked == 4
        # Corrupt one merged result: the checker must notice.
        victim = cluster.router.sharded_queries[0]
        victim.merged_result = (victim.merged_result or 0) + 1
        tampered = check_cross_shard_query_consistency(cluster)
        assert not tampered.ok

    def test_query_consistency_detects_incomplete_query(self):
        cluster = self.build_finished_cluster()
        victim = cluster.router.sharded_queries[0]
        victim.completed_at = None
        report = check_cross_shard_query_consistency(cluster)
        assert not report.ok


class TestShardedMetrics:
    def test_aggregation_sums_shard_summaries(self):
        spec = ShardedWorkloadSpec(shard_count=2, updates_per_shard=10, queries=2)
        cluster = build_sharded_cluster(spec)
        ShardedWorkloadGenerator(spec).apply(cluster)
        cluster.run_until_idle()

        summary = summarize_run(cluster, check_cluster(cluster))
        assert summary.groups.keys() == {"S1", "S2"}
        assert summary.committed == 20
        assert summary.groups["S1"].committed == 10
        assert summary.throughput_tps > 0.0
        assert summary.duration > 0.0
        assert all(group.throughput_tps > 0.0 for group in summary.groups.values())
        assert summary.reorder_aborts == sum(
            group.reorder_aborts for group in summary.groups.values()
        )
        assert summary.one_copy_ok and summary.broadcast_ok and summary.queries_consistent
