"""Tests for workload specs, generated procedures and the workload generator."""

import pytest

from repro import ClusterConfig, ReplicatedDatabase
from repro.core.config import BROADCAST_OPTIMISTIC
from repro.database import MultiVersionStore, TransactionContext
from repro.errors import UnknownObjectError, WorkloadError
from repro.workloads import (
    READ_CLASSES_QUERY,
    SUM_ALL_QUERY,
    UPDATE_PROCEDURE,
    WorkloadGenerator,
    WorkloadSpec,
    build_conflict_map,
    build_initial_data,
    build_partitioned_registry,
    partition_class_id,
    partition_key,
)


class TestWorkloadSpec:
    def test_defaults_are_valid(self):
        spec = WorkloadSpec()
        assert spec.class_count >= 1
        assert spec.effective_query_span <= spec.class_count

    def test_totals(self):
        spec = WorkloadSpec(updates_per_site=10, queries_per_site=3)
        assert spec.total_updates(4) == 40

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"class_count": 0},
            {"objects_per_class": 0},
            {"updates_per_site": -1},
            {"update_interval": -0.1},
            {"query_span": 0},
            {"operations_per_update": 0},
            {"class_skew": -1.0},
            {"class_skew": float("nan")},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(WorkloadError):
            WorkloadSpec(**kwargs)

    def test_query_span_clamped(self):
        spec = WorkloadSpec(class_count=2, query_span=10)
        assert spec.effective_query_span == 2

    def test_partition_naming(self):
        assert partition_class_id(3) == "C3"
        assert partition_key(3, 7) == "part3:obj7"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"queries_per_site": -1},
            {"query_interval": -0.001},
        ],
    )
    def test_remaining_negative_values_rejected(self, kwargs):
        with pytest.raises(WorkloadError):
            WorkloadSpec(**kwargs)

    def test_boundary_values_accepted(self):
        # Degenerate-but-valid corners: a single class and object, no load,
        # zero think time (back-to-back submissions) and zero durations.
        spec = WorkloadSpec(
            class_count=1,
            objects_per_class=1,
            updates_per_site=0,
            queries_per_site=0,
            update_interval=0.0,
            query_interval=0.0,
            query_span=1,
            class_skew=0.0,
            operations_per_update=1,
            update_duration=0.0,
            query_duration=0.0,
        )
        assert spec.total_updates(8) == 0
        assert spec.effective_query_span == 1

    def test_operations_per_update_may_exceed_partition_size(self):
        # The generator clamps the per-update object count to the partition
        # size, so a spec asking for more operations than objects is valid.
        spec = WorkloadSpec(objects_per_class=2, operations_per_update=10)
        assert spec.operations_per_update == 10


class TestZipfClassSkew:
    def seeded_stream(self, seed=42):
        from repro.simulation.randomness import RandomSource

        return RandomSource(seed).stream("zipf-test")

    def test_fixed_seed_reproduces_identical_sample_sequence(self):
        stream_a, stream_b = self.seeded_stream(), self.seeded_stream()
        sequence_a = [stream_a.zipf_index(8, 1.5) for _ in range(500)]
        sequence_b = [stream_b.zipf_index(8, 1.5) for _ in range(500)]
        assert sequence_a == sequence_b

    def test_different_seeds_diverge(self):
        sequence_a = [self.seeded_stream(1).zipf_index(8, 1.5) for _ in range(50)]
        sequence_b = [self.seeded_stream(2).zipf_index(8, 1.5) for _ in range(50)]
        assert sequence_a != sequence_b

    def test_zero_skew_is_uniform_draw(self):
        stream = self.seeded_stream()
        draws = [stream.zipf_index(4, 0.0) for _ in range(2000)]
        counts = {index: draws.count(index) for index in range(4)}
        assert set(counts) == {0, 1, 2, 3}
        # Uniform: no class should dominate (loose 2x bound on expectation).
        assert max(counts.values()) < 2 * (2000 / 4)

    def test_positive_skew_ranks_classes_monotonically(self):
        stream = self.seeded_stream()
        draws = [stream.zipf_index(6, 2.0) for _ in range(4000)]
        counts = [draws.count(index) for index in range(6)]
        # Zipf with skew 2: class 0 hottest, frequencies non-increasing in
        # expectation; check the strong head-vs-tail signal, not exact order.
        assert counts[0] > counts[1] > counts[5]
        assert counts[0] > 4000 / 2  # head weight 1/(1^2) dominates

    def test_draws_always_in_range(self):
        stream = self.seeded_stream()
        for skew in (0.0, 0.5, 3.0):
            assert all(0 <= stream.zipf_index(3, skew) < 3 for _ in range(200))

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            self.seeded_stream().zipf_index(0, 1.0)

    def test_generator_class_choice_deterministic_under_fixed_seed(self):
        spec = WorkloadSpec(updates_per_site=40, class_count=6, class_skew=1.5)

        def class_sequence(seed):
            cluster = ReplicatedDatabase(
                ClusterConfig(site_count=2, seed=seed, broadcast=BROADCAST_OPTIMISTIC),
                build_partitioned_registry(spec),
                initial_data=build_initial_data(spec),
            )
            plan = WorkloadGenerator(spec).apply(cluster)
            return [
                operation.parameters["class_index"]
                for operation in plan.operations
                if not operation.is_query
            ]

        assert class_sequence(7) == class_sequence(7)
        assert class_sequence(7) != class_sequence(8)


class TestGeneratedProcedures:
    def test_initial_data_covers_all_partitions(self):
        spec = WorkloadSpec(class_count=3, objects_per_class=5, initial_value=42)
        data = build_initial_data(spec)
        assert len(data) == 15
        assert data[partition_key(2, 4)] == 42

    def test_registry_contains_expected_procedures(self):
        registry = build_partitioned_registry(WorkloadSpec())
        assert UPDATE_PROCEDURE in registry
        assert READ_CLASSES_QUERY in registry
        assert SUM_ALL_QUERY in registry
        assert registry.get(READ_CLASSES_QUERY).is_query
        assert not registry.get(UPDATE_PROCEDURE).is_query

    def test_update_procedure_maps_to_partition_class(self):
        registry = build_partitioned_registry(WorkloadSpec())
        assert registry.get(UPDATE_PROCEDURE).resolve_conflict_class({"class_index": 5}) == "C5"

    def test_procedures_share_one_key_string_per_object(self):
        spec = WorkloadSpec(class_count=2, objects_per_class=3)
        registry = build_partitioned_registry(spec)
        store = MultiVersionStore()
        store.load_many(build_initial_data(spec))
        update = registry.get(UPDATE_PROCEDURE).body
        first, second = TransactionContext(store), TransactionContext(store)
        update(first, {"class_index": 1, "object_indexes": [0, 2]})
        update(second, {"class_index": 1, "object_indexes": [2]})
        scan = TransactionContext(store, read_only=True)
        registry.get(READ_CLASSES_QUERY).body(scan, {"class_indexes": [1]})
        [key] = second.workspace
        assert key == partition_key(1, 2)
        assert any(written is key for written in first.workspace)
        assert any(read is key for read in scan.read_set)

    @pytest.mark.parametrize(
        "params",
        [
            {"class_index": 0, "object_indexes": [-1]},
            {"class_index": 0, "object_indexes": [3]},
            {"class_index": -1, "object_indexes": [0]},
        ],
        ids=["negative-object", "object-past-end", "negative-class"],
    )
    def test_update_rejects_an_index_outside_the_partitions(self, params):
        spec = WorkloadSpec(class_count=2, objects_per_class=3)
        store = MultiVersionStore()
        store.load_many(build_initial_data(spec))
        context = TransactionContext(store)
        with pytest.raises((KeyError, UnknownObjectError)):
            build_partitioned_registry(spec).get(UPDATE_PROCEDURE).body(context, params)
        assert context.workspace == {}

    def test_conflict_map_assigns_keys_to_partitions(self):
        conflict_map = build_conflict_map(WorkloadSpec(class_count=4))
        assert conflict_map.class_of_key(partition_key(2, 9)) == "C2"
        assert len(conflict_map) == 4


class TestWorkloadGenerator:
    def build_cluster(self, spec, seed=1):
        return ReplicatedDatabase(
            ClusterConfig(site_count=3, seed=seed, broadcast=BROADCAST_OPTIMISTIC),
            build_partitioned_registry(spec),
            initial_data=build_initial_data(spec),
        )

    def test_plan_has_expected_operation_counts(self):
        spec = WorkloadSpec(updates_per_site=5, queries_per_site=2)
        cluster = self.build_cluster(spec)
        plan = WorkloadGenerator(spec).apply(cluster)
        assert plan.update_count == 15
        assert plan.query_count == 6
        assert plan.last_submission_time() > 0.0

    def test_same_seed_produces_identical_plan(self):
        spec = WorkloadSpec(updates_per_site=5, queries_per_site=2)
        plan_a = WorkloadGenerator(spec).apply(self.build_cluster(spec, seed=7))
        plan_b = WorkloadGenerator(spec).apply(self.build_cluster(spec, seed=7))
        assert [
            (op.site_id, op.procedure_name, op.scheduled_at, str(op.parameters))
            for op in plan_a.operations
        ] == [
            (op.site_id, op.procedure_name, op.scheduled_at, str(op.parameters))
            for op in plan_b.operations
        ]

    def test_different_seeds_produce_different_plans(self):
        spec = WorkloadSpec(updates_per_site=10)
        plan_a = WorkloadGenerator(spec).apply(self.build_cluster(spec, seed=1))
        plan_b = WorkloadGenerator(spec).apply(self.build_cluster(spec, seed=2))
        assert [op.scheduled_at for op in plan_a.operations] != [
            op.scheduled_at for op in plan_b.operations
        ]

    def test_applied_workload_runs_to_completion_and_commits_everything(self):
        spec = WorkloadSpec(updates_per_site=8, queries_per_site=2, class_count=4)
        cluster = self.build_cluster(spec)
        plan = WorkloadGenerator(spec).apply(cluster)
        cluster.run_until_idle()
        counts = set(cluster.committed_counts().values())
        assert counts == {plan.update_count}
        assert cluster.database_divergence() == {}

    def test_class_skew_concentrates_updates(self):
        spec = WorkloadSpec(updates_per_site=60, class_count=6, class_skew=2.0)
        cluster = self.build_cluster(spec)
        plan = WorkloadGenerator(spec).apply(cluster)
        class_counts = {}
        for operation in plan.operations:
            class_counts[operation.parameters["class_index"]] = (
                class_counts.get(operation.parameters["class_index"], 0) + 1
            )
        assert class_counts.get(0, 0) > class_counts.get(5, 0)

    def test_query_parameters_reference_valid_classes(self):
        spec = WorkloadSpec(queries_per_site=5, class_count=3, query_span=2)
        cluster = self.build_cluster(spec)
        plan = WorkloadGenerator(spec).apply(cluster)
        for operation in plan.operations:
            if operation.is_query:
                assert all(0 <= index < 3 for index in operation.parameters["class_indexes"])
