"""Additional coverage for replica-manager internals and cluster options."""

import pytest

from repro import ClusterConfig, ProcedureRegistry, ReplicatedDatabase
from repro.broadcast.spontaneous import receive_sequences


def simple_registry():
    registry = ProcedureRegistry()

    @registry.procedure("set_value", conflict_class="C_main", duration=0.002)
    def set_value(ctx, params):
        ctx.write("main:value", params["value"])
        return params["value"]

    @registry.procedure("get_value", is_query=True, duration=0.001)
    def get_value(ctx, params):
        return ctx.read("main:value")

    return registry


def build_cluster(**overrides):
    overrides.setdefault("site_count", 3)
    overrides.setdefault("seed", 1)
    config = ClusterConfig(**overrides)
    return ReplicatedDatabase(config, simple_registry(), initial_data={"main:value": 0})


class TestReplicaInternals:
    def test_ordering_delay_metric_recorded_for_optimistic_broadcast(self):
        cluster = build_cluster()
        cluster.submit("N2", "set_value", {"value": 7})
        cluster.run_until_idle()
        # Non-coordinator sites observe a strictly positive Opt->TO delay.
        summary = cluster.replica("N3").metrics.latency("ordering_delay").summary()
        assert summary.count == 1
        assert summary.mean > 0.0

    def test_commit_metrics_and_submitted_records(self):
        cluster = build_cluster()
        txn_id = cluster.submit("N1", "set_value", {"value": 3})
        cluster.run_until_idle()
        replica = cluster.replica("N1")
        assert replica.metrics.count("commits") == 1
        assert replica.metrics.count("transactions_submitted") == 1
        submitted = replica.submitted[txn_id]
        assert submitted.latency is not None and submitted.latency > 0.0

    def test_redo_log_populated_on_every_commit(self):
        cluster = build_cluster()
        cluster.submit("N1", "set_value", {"value": 5})
        cluster.submit("N1", "set_value", {"value": 9})
        cluster.run_until_idle()
        assert len(cluster.replica("N2").redo_log) == 2

    def test_snapshot_manager_tracks_last_committed_index(self):
        cluster = build_cluster()
        for value in range(4):
            cluster.submit("N1", "set_value", {"value": value})
        cluster.run_until_idle()
        assert cluster.replica("N3").snapshot_manager.last_processed_index == 3

    def test_query_after_updates_sees_latest_committed_value(self):
        cluster = build_cluster()
        cluster.submit("N1", "set_value", {"value": 42})
        cluster.run_until_idle()
        query = cluster.submit_query("N3", "get_value", {})
        cluster.run_until_idle()
        assert query.result == 42

    def test_remote_transactions_commit_at_every_site(self):
        cluster = build_cluster()
        txn_id = cluster.submit("N1", "set_value", {"value": 1})
        cluster.run_until_idle()
        assert all(txn_id in cluster.replica(site).history for site in ("N1", "N2", "N3"))
        assert txn_id not in cluster.replica("N3").submitted


class TestClusterOptions:
    def test_record_deliveries_populates_transport_log(self):
        cluster = build_cluster(record_deliveries=True)
        cluster.submit("N1", "set_value", {"value": 1})
        cluster.run_until_idle()
        sequences = receive_sequences(cluster.transport.delivery_log, kind="optabcast.data")
        assert set(sequences) == {"N1", "N2", "N3"}

    def test_duration_scale_slows_down_execution(self):
        fast = build_cluster(seed=2)
        slow = build_cluster(seed=2, duration_scale=5.0)
        for cluster in (fast, slow):
            cluster.submit("N1", "set_value", {"value": 1})
            cluster.run_until_idle()
        assert slow.all_client_latencies()[0] > fast.all_client_latencies()[0]

    def test_cpu_count_limits_concurrent_executions(self):
        registry = ProcedureRegistry()

        @registry.procedure("spin", conflict_class=lambda p: f"C{p['n']}", duration=0.010)
        def spin(ctx, params):
            ctx.write(f"slot:{params['n']}", 1)

        cluster = ReplicatedDatabase(
            ClusterConfig(site_count=1, seed=3, cpu_count=1),
            registry,
            initial_data={f"slot:{index}": 0 for index in range(4)},
        )
        for index in range(4):
            cluster.submit("N1", "spin", {"n": index})
        cluster.run_until_idle()
        # With a single CPU the four 10 ms executions are serialised.
        assert cluster.now >= 0.040


class TestHarnessRegistry:
    def test_every_design_experiment_has_a_benchmark_file(self):
        from pathlib import Path

        bench_dir = Path(__file__).resolve().parent.parent / "benchmarks"
        bench_files = {path.name for path in bench_dir.glob("test_bench_*.py")}
        expected = {
            "test_bench_figure1_spontaneous_order.py",
            "test_bench_overlap_latency.py",
            "test_bench_conflict_aborts.py",
            "test_bench_lazy_comparison.py",
            "test_bench_queries.py",
            "test_bench_optimism_tradeoff.py",
            "test_bench_scalability.py",
            "test_bench_ordering_mode_ablation.py",
        }
        assert expected <= bench_files
