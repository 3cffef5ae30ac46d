"""Tests for the observability layer: tracing and the metrics registry.

Covers the span protocol (closed exactly once, loud failures on misuse),
end-to-end tracing of flat and chaos runs (same-seed reproducible), the
zero-cost disabled path, and the unified metric namespace across flat and
sharded clusters.
"""

import importlib.util
from collections import Counter
import inspect
import json
import os
import subprocess
import sys

import pytest

from repro.chaos.plan import FaultPlan, coordinator
from repro.chaos.scenarios import build_chaos_cluster, execute_chaos_run
from repro.core.cluster import ReplicatedDatabase
from repro.core.config import ClusterConfig
import repro.observability
from repro.observability import (
    FLAT_SHARD_LABEL,
    TraceError,
    TransactionTracer,
    build_registry,
    derive_metrics,
)
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.procedures import (
    build_conflict_map,
    build_initial_data,
    build_partitioned_registry,
)
from repro.workloads.specs import WorkloadSpec


def open_spans(tracer):
    return [span for span in tracer.spans if not span.closed]


def counts_by_kind(tracer):
    return Counter(event.kind for event in tracer.events)


def instrument_names(registry):
    """``{"counter" | "latency" | "gauge": sorted names}`` a registry exports."""
    names = {}
    for key in registry.snapshot():
        kind, name = key.split("/")[-2:]
        names.setdefault(kind, set()).add(name)
    return {kind: sorted(found) for kind, found in names.items()}


def build_traced_cluster(tracer, *, seed=7, site_count=3, updates_per_site=6):
    spec = WorkloadSpec(
        class_count=4,
        updates_per_site=updates_per_site,
        update_interval=0.002,
        update_duration=0.0008,
    )
    cluster = ReplicatedDatabase(
        ClusterConfig(site_count=site_count, seed=seed, tracer=tracer),
        build_partitioned_registry(spec),
        conflict_map=build_conflict_map(spec),
        initial_data=build_initial_data(spec),
    )
    WorkloadGenerator(spec).apply(cluster)
    return cluster


class TestSpanProtocol:
    def test_begin_end_once(self):
        tracer = TransactionTracer()
        span = tracer.begin(1.0, "execute", "S1", "T1", conflict_class="C0")
        assert not span.closed
        closed = tracer.end(2.5, "execute", "S1", "T1", outcome="executed")
        assert closed is span
        assert span.closed
        assert span.duration == pytest.approx(1.5)
        assert span.outcome == "executed"
        assert span.attempt == 1

    def test_double_close_raises(self):
        tracer = TransactionTracer()
        tracer.begin(1.0, "execute", "S1", "T1")
        tracer.end(2.0, "execute", "S1", "T1")
        with pytest.raises(TraceError):
            tracer.end(3.0, "execute", "S1", "T1")

    def test_end_without_begin_raises(self):
        tracer = TransactionTracer()
        with pytest.raises(TraceError):
            tracer.end(1.0, "lifecycle", "S1", "T1")

    def test_begin_while_open_raises(self):
        tracer = TransactionTracer()
        tracer.begin(1.0, "execute", "S1", "T1")
        with pytest.raises(TraceError):
            tracer.begin(1.5, "execute", "S1", "T1")

    def test_reopen_after_close_numbers_attempts(self):
        tracer = TransactionTracer()
        tracer.begin(1.0, "execute", "S1", "T1")
        tracer.end(2.0, "execute", "S1", "T1", outcome="reorder_abort")
        retry = tracer.begin(2.5, "execute", "S1", "T1")
        assert retry.attempt == 2

    def test_end_if_open_is_a_noop_when_closed(self):
        tracer = TransactionTracer()
        assert tracer.end_if_open(1.0, "execute", "S1", "T1") is None
        tracer.begin(1.0, "execute", "S1", "T1")
        assert tracer.end_if_open(2.0, "execute", "S1", "T1") is not None
        assert tracer.end_if_open(3.0, "execute", "S1", "T1") is None

    def test_close_site_spans_only_touches_that_site(self):
        tracer = TransactionTracer()
        tracer.begin(1.0, "execute", "S1", "T1")
        tracer.begin(1.0, "lifecycle", "S1", "T1")
        tracer.begin(1.0, "execute", "S2", "T2")
        closed = tracer.close_site_spans(2.0, "S1", outcome="crash")
        assert closed == 2
        assert [span.site for span in open_spans(tracer)] == ["S2"]
        assert all(
            span.outcome == "crash" for span in tracer.spans if span.site == "S1"
        )


class TestTracedClusterRun:
    def test_lifecycle_spans_close_exactly_once(self):
        tracer = TransactionTracer()
        cluster = build_traced_cluster(tracer)
        cluster.run_until_idle()

        assert open_spans(tracer) == []
        lifecycles = [span for span in tracer.spans if span.name == "lifecycle"]
        assert lifecycles and all(span.closed for span in lifecycles)
        assert all(span.outcome == "committed" for span in lifecycles)
        # Exactly one lifecycle attempt per transaction at its submit site.
        keys = [(s.name, s.site, s.transaction_id, s.attempt) for s in tracer.spans]
        assert len(keys) == len(set(keys))

    def test_events_cover_the_transaction_path(self):
        tracer = TransactionTracer()
        cluster = build_traced_cluster(tracer)
        cluster.run_until_idle()
        counts = counts_by_kind(tracer)
        for kind in ("submit", "broadcast_send", "opt_deliver", "to_deliver", "commit"):
            assert counts.get(kind, 0) > 0, counts
        transaction_id = next(
            event.transaction_id for event in tracer.events if event.kind == "submit"
        )
        timeline = [kind for _, kind, _ in tracer.transaction_timeline(transaction_id)]
        assert timeline.index("submit") < timeline.index("commit")

    def test_derived_metrics_from_a_traced_run(self):
        tracer = TransactionTracer()
        cluster = build_traced_cluster(tracer)
        cluster.run_until_idle()
        derived = derive_metrics(cluster)
        assert 0.0 <= derived.opt_to_divergence_rate <= 1.0
        assert derived.commits > 0
        assert derived.max_class_queue_depth >= 1.0
        assert derived.phase_breakdown["client_commit_latency"].count > 0

    def test_jsonl_export_round_trips(self):
        tracer = TransactionTracer()
        cluster = build_traced_cluster(tracer, updates_per_site=3)
        cluster.run_until_idle()
        lines = tracer.to_jsonl().splitlines()
        assert len(lines) == len(tracer.events) + len(tracer.spans)
        parsed = [json.loads(line) for line in lines]
        assert {entry["type"] for entry in parsed} == {"event", "span"}

    def test_chrome_trace_export_shape(self, tmp_path):
        tracer = TransactionTracer()
        cluster = build_traced_cluster(tracer, updates_per_site=3)
        cluster.run_until_idle()
        path = tmp_path / "trace.json"
        count = tracer.write_chrome_trace(str(path))
        entries = json.loads(path.read_text())
        assert len(entries) == count
        assert {entry["ph"] for entry in entries} <= {"X", "i"}
        stamps = [entry["ts"] for entry in entries]
        assert stamps == sorted(stamps)
        assert all(entry["ts"] >= 0 for entry in entries)


class TestDisabledTracingFastPath:
    def test_kernel_hot_loop_has_no_tracing_hooks(self):
        # The zero-cost claim, checked structurally: the simulation kernel
        # never consults a tracer, so the dispatch floor is untouched.
        import repro.simulation.kernel as kernel_module

        assert "tracer" not in inspect.getsource(kernel_module)

    def test_disabled_tracing_changes_nothing(self):
        untraced = build_traced_cluster(None, seed=9)
        untraced_events = untraced.run_until_idle()
        tracer = TransactionTracer()
        traced = build_traced_cluster(tracer, seed=9)
        traced_events = traced.run_until_idle()
        # Tracing schedules no kernel events and alters no outcomes: the
        # traced run dispatches the exact same event count and commits the
        # same transactions.
        assert traced_events == untraced_events
        assert traced.committed_counts() == untraced.committed_counts()
        assert len(tracer.events) > 0


class TestChaosTraceReproducibility:
    def run_traced_failover(self, seed):
        tracer = TransactionTracer()
        cluster, spec = build_chaos_cluster(seed, tracer=tracer)
        first_shard = cluster.shard_ids()[0]
        plan = FaultPlan("traced-failover").crash(
            coordinator(first_shard), at=0.030, duration=0.080
        )
        result = execute_chaos_run(
            cluster, spec, plan, scenario="traced_failover", seed=seed
        )
        return tracer, result

    def test_same_seed_same_trace(self):
        first_tracer, first_result = self.run_traced_failover(seed=5)
        second_tracer, second_result = self.run_traced_failover(seed=5)
        assert first_result.ok and second_result.ok
        assert len(first_tracer.events) > 0
        assert first_tracer.signature() == second_tracer.signature()

    def test_crash_closes_spans_and_is_visible(self):
        tracer, result = self.run_traced_failover(seed=5)
        assert result.faults_injected >= 1
        counts = counts_by_kind(tracer)
        assert counts.get("site_down", 0) >= 1
        assert counts.get("site_up", 0) >= 1
        assert open_spans(tracer) == []

    def test_different_seed_different_trace(self):
        first_tracer, _ = self.run_traced_failover(seed=5)
        second_tracer, _ = self.run_traced_failover(seed=6)
        assert first_tracer.signature() != second_tracer.signature()

    def test_same_seed_sharded_double_run_same_trace(self):
        # Regression guard for the determinism fixes the static-analysis
        # suite motivated (set-ordered shard-config kwargs, hash-free
        # RandomSource.fork): two fresh same-seed sharded runs must produce
        # byte-identical trace signatures.
        from repro.workloads.sharded import ShardedWorkloadGenerator

        def run_once():
            tracer = TransactionTracer()
            sharded, spec = build_chaos_cluster(seed=11, tracer=tracer)
            ShardedWorkloadGenerator(spec).apply(sharded)
            sharded.run_until_idle()
            return tracer

        first, second = run_once(), run_once()
        assert len(first.events) > 0
        assert first.signature() == second.signature()


class TestRegistryNamespace:
    def test_flat_cluster_registers_under_the_global_shard(self):
        cluster = build_traced_cluster(None)
        cluster.run_until_idle()
        registry = build_registry(cluster)
        assert registry.label_values("shard") == [FLAT_SHARD_LABEL]
        assert len(registry) == len(cluster.site_ids())
        total = sum(cluster.committed_counts().values())
        assert registry.counter_total("commits") == total
        assert registry.gauge_high_water("class_queue_depth") >= 1.0

    def test_deriving_metrics_registers_no_instrument(self):
        # A flat closed-loop run records no query latency and sets no
        # admission gauge; reporting on it must not create either.
        cluster = build_traced_cluster(None)
        cluster.run_until_idle()
        before = instrument_names(build_registry(cluster))
        snapshot = build_registry(cluster).snapshot()
        derived = derive_metrics(cluster)
        assert instrument_names(build_registry(cluster)) == before
        assert build_registry(cluster).snapshot() == snapshot
        assert "query_latency" not in before.get("latency", ())
        assert "admission_queue_depth" not in before.get("gauge", ())
        assert derived.phase_breakdown["query_latency"].count == 0
        assert derived.max_admission_queue_depth == 0.0
        assert derived.max_class_queue_depth >= 1.0

    def test_flat_and_sharded_share_one_namespace(self):
        flat = build_traced_cluster(None)
        flat.run_until_idle()
        flat_registry = build_registry(flat)

        sharded, spec = build_chaos_cluster(seed=3)
        from repro.workloads.sharded import ShardedWorkloadGenerator

        ShardedWorkloadGenerator(spec).apply(sharded)
        sharded.run_until_idle()
        sharded_registry = build_registry(sharded)

        assert sharded_registry.label_values("shard") == sorted(sharded.shard_ids())
        flat_names = instrument_names(flat_registry)
        sharded_names = instrument_names(sharded_registry)
        for kind in ("counter", "latency"):
            shared = set(flat_names[kind]) & set(sharded_names[kind])
            assert {"commits", "client_commit_latency"} & shared or shared
        # The flat snapshot keys are the same shape as the sharded ones,
        # just labelled with the global pseudo-shard.
        flat_keys = list(flat_registry.snapshot())
        assert flat_keys and all(
            key.startswith(f"shard={FLAT_SHARD_LABEL}/site=") for key in flat_keys
        )

    def test_label_filters_partition_the_totals(self):
        sharded, spec = build_chaos_cluster(seed=3)
        from repro.workloads.sharded import ShardedWorkloadGenerator

        ShardedWorkloadGenerator(spec).apply(sharded)
        sharded.run_until_idle()
        registry = build_registry(sharded)
        per_shard = [
            registry.counter_total("commits", shard=shard_id)
            for shard_id in sharded.shard_ids()
        ]
        assert sum(per_shard) == registry.counter_total("commits")
        assert all(count > 0 for count in per_shard)



@pytest.mark.parametrize("module", ["store", "gate", "trend"])
def test_removed_perf_store_modules_stay_gone(module):
    # Host performance is measured by ``python -m bench`` only; the SQLite
    # results store, its statistical gate and trend report were deleted.
    assert importlib.util.find_spec(f"repro.observability.{module}") is None


def test_exports_resolve_and_omit_the_results_store():
    for name in repro.observability.__all__:
        assert hasattr(repro.observability, name), name
    removed = {
        "ResultsStore",
        "ResultsStoreError",
        "PerfGate",
        "config_hash",
        "failures",
        "gate_against_history",
        "render_trend_report",
    }
    assert removed.isdisjoint(repro.observability.__all__)
    assert not any(hasattr(repro.observability, name) for name in removed)


def test_importing_repro_loads_neither_sqlite3_nor_subprocess():
    # The package measures no host performance of its own (that is
    # ``python -m bench``), so a bare import must not pay for a database
    # driver or process spawning.
    snippet = (
        "import sys, repro;"
        "print(sorted({'sqlite3', 'subprocess'} & set(sys.modules)))"
    )
    env = dict(os.environ)
    src_dir = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src_dir)
    completed = subprocess.run(
        [sys.executable, "-c", snippet],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[]"
