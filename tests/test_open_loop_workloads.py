"""Tests for open-loop arrival processes and the open-loop traffic engine."""

import os
import subprocess
import sys

import pytest

from repro import ClusterConfig, ReplicatedDatabase
from repro.chaos import build_chaos_cluster
from repro.errors import WorkloadError
from repro.simulation.randomness import RandomSource
from repro.verification import check_one_copy_serializability
from repro.workloads import (
    OpenLoopSpec,
    OpenLoopTrafficEngine,
    PoissonArrivals,
    build_conflict_map,
    build_initial_data,
    build_partitioned_registry,
)


def stream(seed=11, salt="arrivals-test"):
    return RandomSource(seed).stream(salt)


def assert_valid_schedule(times, horizon):
    assert all(0.0 <= at < horizon for at in times)
    assert times == sorted(times)
    assert len(times) == len(set(times))


class TestPoissonArrivals:
    def test_schedule_is_increasing_and_bounded(self):
        times = PoissonArrivals(rate=500.0).arrival_times(stream(), horizon=0.5)
        assert_valid_schedule(times, 0.5)

    def test_mean_rate_matches(self):
        times = PoissonArrivals(rate=1000.0).arrival_times(stream(), horizon=2.0)
        assert len(times) == pytest.approx(2000, rel=0.1)

    def test_same_stream_same_schedule(self):
        process = PoissonArrivals(rate=800.0)
        first = process.arrival_times(stream(seed=3), horizon=0.25)
        second = process.arrival_times(stream(seed=3), horizon=0.25)
        assert first == second

    def test_different_streams_give_different_schedules(self):
        process = PoissonArrivals(rate=800.0)
        first = process.arrival_times(stream(seed=3), horizon=0.25)
        second = process.arrival_times(stream(seed=4), horizon=0.25)
        assert first != second

    def test_rate_must_be_positive(self):
        with pytest.raises(WorkloadError, match="rate must be positive"):
            PoissonArrivals(rate=0.0)

    def test_nan_rate_rejected(self):
        # A NaN rate makes every gap NaN: ``at >= horizon`` never holds and
        # arrival_times() would never return.
        with pytest.raises(WorkloadError, match="rate must be positive"):
            PoissonArrivals(rate=float("nan"))


class TestOpenLoopSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"horizon": 0.0},
            {"horizon": float("nan")},
            {"class_count": 0},
            {"objects_per_class": 0},
            {"query_fraction": 1.5},
            {"query_span": 0},
            {"class_skew": -1.0},
            {"class_skew": float("nan")},
            {"operations_per_update": 0},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        kwargs.setdefault("horizon", 0.1)
        with pytest.raises(WorkloadError):
            OpenLoopSpec(arrivals=PoissonArrivals(rate=100.0), **kwargs)

    def test_base_spec_mirrors_the_schema(self):
        spec = OpenLoopSpec(
            arrivals=PoissonArrivals(rate=100.0),
            horizon=0.1,
            class_count=3,
            objects_per_class=7,
            query_span=5,
        )
        base = spec.base_spec()
        assert base.class_count == 3
        assert base.objects_per_class == 7
        assert base.query_span == 3  # clamped to class_count


def build_flat_cluster(spec, *, seed, admission=None):
    base = spec.base_spec()
    return ReplicatedDatabase(
        ClusterConfig(site_count=4, seed=seed, admission=admission),
        build_partitioned_registry(base),
        conflict_map=build_conflict_map(base),
        initial_data=build_initial_data(base),
    )


def open_spec(**overrides):
    overrides.setdefault("arrivals", PoissonArrivals(rate=1200.0))
    overrides.setdefault("horizon", 0.1)
    overrides.setdefault("class_count", 4)
    return OpenLoopSpec(**overrides)


class TestOpenLoopPlan:
    def test_equal_seeds_equal_signatures(self):
        spec = open_spec(query_fraction=0.2)
        engine = OpenLoopTrafficEngine(spec)
        first = engine.build_plan(build_flat_cluster(spec, seed=21))
        second = engine.build_plan(build_flat_cluster(spec, seed=21))
        assert first.operations == second.operations

    def test_different_seeds_different_signatures(self):
        spec = open_spec()
        engine = OpenLoopTrafficEngine(spec)
        first = engine.build_plan(build_flat_cluster(spec, seed=21))
        second = engine.build_plan(build_flat_cluster(spec, seed=22))
        assert first.operations != second.operations

    def test_query_fraction_splits_the_stream(self):
        spec = open_spec(query_fraction=0.3, horizon=0.2)
        plan = OpenLoopTrafficEngine(spec).build_plan(build_flat_cluster(spec, seed=5))
        assert plan.query_count > 0
        assert plan.update_count > 0
        assert plan.update_count + plan.query_count == len(plan.operations)
        fraction = plan.query_count / len(plan.operations)
        assert fraction == pytest.approx(0.3, abs=0.1)

    def test_skew_concentrates_updates_on_the_first_class(self):
        spec = open_spec(class_skew=2.0)
        plan = OpenLoopTrafficEngine(spec).build_plan(build_flat_cluster(spec, seed=5))
        counts = [0] * spec.class_count
        for operation in plan.operations:
            counts[operation.parameters["class_index"]] += 1
        assert counts[0] > sum(counts[1:])

    def test_queries_read_consecutive_classes_wrapping(self):
        spec = open_spec(query_fraction=1.0, query_span=3)
        plan = OpenLoopTrafficEngine(spec).build_plan(build_flat_cluster(spec, seed=5))
        assert plan.operations and plan.update_count == 0
        windows = [
            sorted((first + step) % spec.class_count for step in range(3))
            for first in range(spec.class_count)
        ]
        assert all(op.parameters["class_indexes"] in windows for op in plan.operations)

    def test_update_objects_are_distinct_sorted_and_in_range(self):
        spec = open_spec(objects_per_class=5, operations_per_update=3)
        plan = OpenLoopTrafficEngine(spec).build_plan(build_flat_cluster(spec, seed=5))
        for operation in plan.operations:
            objects = operation.parameters["object_indexes"]
            assert objects == sorted(set(objects))
            assert len(objects) == 3 and 0 <= objects[0] and objects[-1] < 5

    def test_start_time_shifts_every_offer(self):
        spec = open_spec()
        engine = OpenLoopTrafficEngine(spec)
        base = engine.build_plan(build_flat_cluster(spec, seed=5))
        shifted = engine.build_plan(build_flat_cluster(spec, seed=5), start_time=1.0)
        assert len(base.operations) == len(shifted.operations) > 0
        for early, late in zip(base.operations, shifted.operations):
            assert late.scheduled_at == pytest.approx(early.scheduled_at + 1.0)
            assert late.parameters == early.parameters

    def test_last_arrival_lies_inside_the_horizon(self):
        spec = open_spec()
        plan = OpenLoopTrafficEngine(spec).build_plan(build_flat_cluster(spec, seed=5))
        assert 0.0 < max(op.scheduled_at for op in plan.operations) < spec.horizon


class TestEngineAgainstFlatCluster:
    def test_all_offers_admitted_without_admission_config(self):
        spec = open_spec(query_fraction=0.1)
        cluster = build_flat_cluster(spec, seed=13)
        plan = OpenLoopTrafficEngine(spec).apply(cluster)
        cluster.run_until_idle()
        cluster.check_scheduler_invariants()
        assert plan.admitted_updates == plan.update_count
        assert plan.admitted_queries == plan.query_count
        assert plan.refused_updates == 0 and plan.refused_queries == 0
        counts = set(cluster.committed_counts().values())
        assert counts == {plan.update_count}
        check_one_copy_serializability(cluster.histories()).raise_if_violated()

    def test_apply_rejects_offers_scheduled_in_the_past(self):
        spec = open_spec()
        cluster = build_flat_cluster(spec, seed=13)
        cluster.kernel.schedule_at(1.0, lambda: None, label="advance")
        cluster.run_until_idle()
        with pytest.raises(WorkloadError, match="lies in the past"):
            OpenLoopTrafficEngine(spec).apply(cluster)


class TestEngineAgainstShardedCluster:
    def test_offers_resolve_to_owning_shards(self):
        cluster, shard_spec = build_chaos_cluster(31)
        spec = OpenLoopSpec(
            arrivals=PoissonArrivals(rate=900.0),
            horizon=0.1,
            class_count=shard_spec.class_count,
            objects_per_class=shard_spec.objects_per_class,
            query_fraction=0.1,
            query_span=shard_spec.query_span,
            update_duration=shard_spec.update_duration,
        )
        plan = OpenLoopTrafficEngine(spec).apply(cluster)
        cluster.run_until_idle()
        assert plan.admitted_updates == plan.update_count
        assert plan.admitted_queries == plan.query_count
        committed = sum(
            len(replica.submitted)
            for shard in cluster.shards.values()
            for replica in shard.replicas.values()
        )
        assert committed == plan.update_count
        for shard in cluster.shards.values():
            check_one_copy_serializability(shard.histories()).raise_if_violated()


SUBPROCESS_SNIPPET = (
    "from repro import ClusterConfig, ReplicatedDatabase;"
    "from repro.chaos import random_fuzz;"
    "from repro.workloads import ("
    "OpenLoopSpec, OpenLoopTrafficEngine, PoissonArrivals,"
    "build_conflict_map, build_initial_data, build_partitioned_registry);"
    "spec = OpenLoopSpec(arrivals=PoissonArrivals(rate=1500.0), horizon=0.08,"
    " class_count=4, query_fraction=0.2);"
    "base = spec.base_spec();"
    "cluster = ReplicatedDatabase(ClusterConfig(site_count=4, seed=17),"
    " build_partitioned_registry(base), conflict_map=build_conflict_map(base),"
    " initial_data=build_initial_data(base));"
    "print(OpenLoopTrafficEngine(spec).build_plan(cluster).operations);"
    "run = random_fuzz(seed=3);"
    "print(run.trace_signature(), run.committed, run.duration)"
)


def test_schedules_and_fuzz_traces_survive_hash_seed_changes():
    """Two PYTHONHASHSEED universes: same arrival schedule, same fault trace.

    The open-loop plan and the random-fuzz fault soup are both pure
    functions of the master seed, so their printed fingerprints must be
    byte-identical across interpreter hash seeds.
    """
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        src_dir = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src_dir)
        completed = subprocess.run(
            [sys.executable, "-c", SUBPROCESS_SNIPPET],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        outputs.append(completed.stdout)
    assert outputs[0] == outputs[1]
