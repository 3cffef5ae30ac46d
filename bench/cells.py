"""The five measured cells, built from the public functions of ``repro``.

A cell is what ``run_standard_workload`` / ``run_sharded_workload`` / a
``harness.cells`` function does for a researcher, split into the phases the
benchmark times separately: **setup** (the constructor: registry, conflict
map, initial data, cluster, plan scheduling), **run**, **report**
(``derive_metrics``) and **verify**.  Importing this module imports
``repro``, so a child process that imports it after taking its start time
charges the imports to setup.
"""

from __future__ import annotations

import hashlib
import time
from typing import Any, Dict, Iterable, List, Optional

from repro.broadcast.batching import BatchingConfig, unwrap_endpoint
from repro.chaos.orchestrator import ChaosOrchestrator
from repro.chaos.plan import ACTION_CRASH, FaultPlan, coordinator, site
from repro.chaos.scenarios import build_chaos_cluster
from repro.core.admission import AdmissionConfig
from repro.core.cluster import ReplicatedDatabase
from repro.core.config import ClusterConfig, ShardingConfig
from repro.errors import SchedulerError
from repro.failure.suspicion import FailureDetectionConfig
from repro.metrics.stats import summarize
from repro.observability.registry import DerivedMetrics, build_registry, derive_metrics
from repro.observability.trace import TransactionTracer
from repro.sharding.cluster import ShardedCluster
from repro.simulation.clock import to_milliseconds
from repro.simulation.randomness import RandomSource
from repro.verification import (
    check_broadcast_properties,
    check_cross_shard_query_consistency,
    check_eventual_termination,
    check_one_copy_serializability,
    check_recovery_completeness,
    check_sharded_eventual_termination,
    check_sharded_one_copy_serializability,
)
from repro.workloads.arrivals import OpenLoopSpec, OpenLoopTrafficEngine, PoissonArrivals
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.procedures import (
    build_conflict_map,
    build_initial_data,
    build_partitioned_registry,
)
from repro.workloads.sharded import (
    ShardedWorkloadGenerator,
    ShardedWorkloadSpec,
    build_shard_map,
)
from repro.workloads.specs import WorkloadSpec

from .spec import MEASURED_RATE

#: Check name -> violations (empty = green).
Checks = Dict[str, List[str]]


class Cell:
    """Common measurements over one built cluster (flat or sharded).

    Subclasses build the cluster in ``__init__`` and set ``cluster``,
    ``groups`` (the replica groups: one for a flat cluster, one per shard),
    ``offered_updates`` / ``offered_queries``, ``window`` (virtual end of the
    offered load) and ``plan_s`` (host seconds spent planning the workload).
    """

    cluster: Any
    groups: List[ReplicatedDatabase]
    offered_updates: int
    offered_queries: int
    window: float
    plan_s: float

    # ------------------------------------------------------------------ run
    def run(self) -> None:
        """The run phase: drive the simulation to completion."""
        self.cluster.run_until_idle()

    def report(self) -> DerivedMetrics:
        """The report phase, as every harness cell performs it."""
        return derive_metrics(self.cluster)

    def verify(self) -> Checks:
        """The verify phase: every invariant that applies to this cell."""
        raise NotImplementedError

    # ----------------------------------------------------------- inspection
    def replicas(self) -> Iterable[Any]:
        for group in self.groups:
            yield from group.replicas.values()

    def commits(self) -> int:
        """Distinct committed update transactions."""
        total = 0
        for group in self.groups:
            counts = group.committed_counts()
            total += max(counts.values()) if counts else 0
        return total

    def backlog(self) -> int:
        """Updates submitted at their origin and not yet committed there."""
        return sum(
            1
            for replica in self.replicas()
            for submitted in replica.submitted.values()
            if submitted.committed_at is None
        )

    def refused(self) -> int:
        """Offers the client path turned away (shed or refused)."""
        return 0

    def queries_completed(self) -> int:
        return sum(replica.metrics.count("queries_completed") for replica in self.replicas())

    def query_latencies(self) -> List[float]:
        samples: List[float] = []
        for replica in self.replicas():
            samples.extend(replica.metrics.latency("query_latency").samples)
        return samples

    # -------------------------------------------------------------- metrics
    def end_to_end(self, derived: DerivedMetrics) -> Dict[str, float]:
        """The virtual-clock end-to-end metrics of this cell."""
        submitted = [s for r in self.replicas() for s in r.submitted.values()]
        committed = sum(1 for s in submitted if s.committed_at is not None)
        in_window = sum(
            1 for s in submitted
            if s.committed_at is not None and s.committed_at <= self.window
        )
        offered = self.offered_updates + self.offered_queries
        latency = derived.phase_breakdown["client_commit_latency"]
        metrics = {
            "commit_p50_ms": to_milliseconds(latency.p50),
            "commit_p99_ms": to_milliseconds(latency.p99),
            "commit_samples": float(latency.count),
            "goodput_tps": in_window / self.window,
            "failed_share": (offered - committed - self.queries_completed()) / offered,
            "offered": float(offered),
            "completed": float(committed + self.queries_completed()),
        }
        query_latencies = self.query_latencies()
        if query_latencies:
            metrics["query_p99_ms"] = to_milliseconds(summarize(query_latencies).p99)
            metrics["query_samples"] = float(len(query_latencies))
        return metrics

    def layer_counts(self, derived: DerivedMetrics) -> Dict[str, float]:
        """Per-layer counts (exact for a seed), read from public counters."""
        commits = max(1, self.commits())
        kernel = self.cluster.kernel
        transport = self.cluster.transport.stats.snapshot()
        registry = build_registry(self.cluster)
        outer = [g.broadcast_endpoint(s) for g in self.groups for s in g.site_ids()]
        inner = [unwrap_endpoint(endpoint) for endpoint in outer]
        replicas = list(self.replicas())
        stores = [replica.store for replica in replicas]
        queries = sum(r.metrics.count("queries_submitted") for r in replicas)
        counter_updates = sum(sum(r.metrics.counters().values()) for r in replicas)
        latency_samples = sum(
            summary.count
            for r in replicas
            for summary in r.metrics.snapshot()["latencies"].values()
        )
        ordering = registry.latency_breakdown("ordering_delay")
        counts = {
            "simulation.events_per_commit": kernel.events_executed / commits,
            "network.envelopes_per_commit": transport["envelopes_delivered"] / commits,
            "network.multicasts_per_commit": transport["multicasts_sent"] / commits,
            "network.retransmissions": float(transport["retransmissions"]),
            "broadcast.control_msgs_per_commit": sum(
                e.stats.control_messages for e in inner) / commits,
            "broadcast.opt_to_mismatch_share": derived.opt_to_divergence_rate,
            "broadcast.msgs_per_batch": sum(e.stats.broadcasts for e in outer)
            / max(1, sum(e.stats.broadcasts for e in inner)),
            "broadcast.delivery_log_len_max": float(
                max(len(e.to_delivery_log) for e in outer)),
            "broadcast.ordering_delay_p50_ms": to_milliseconds(ordering.p50),
            "broadcast.ordering_delay_p99_ms": to_milliseconds(ordering.p99),
            "core.reorder_aborts_per_commit": derived.aborts_by_cause["reordering"] / commits,
            "core.class_queue_depth_max": derived.max_class_queue_depth,
            "core.deferred": float(derived.deferred),
            "core.opt_deliver_to_commit_p99_ms": to_milliseconds(
                derived.phase_breakdown["opt_deliver_to_commit"].p99),
            "core.to_deliver_to_commit_p99_ms": to_milliseconds(
                derived.phase_breakdown["to_deliver_to_commit"].p99),
            "database.writes_per_commit": sum(s.stats.writes for s in stores) / commits,
            "database.reads_per_commit": sum(s.stats.reads for s in stores) / commits,
            "database.versions_per_key_max": float(
                max(s.version_count(key) for s in stores for key in s.keys())),
            "database.redo_log_len_max": float(max(len(r.redo_log) for r in replicas)),
            "metrics.samples_per_commit": (counter_updates + latency_samples) / commits,
            "workloads.plan_s": self.plan_s,
        }
        if queries:
            counts["database.snapshot_reads_per_query"] = (
                sum(s.stats.snapshot_reads for s in stores) / queries)
        return counts

    def state_digest(self) -> str:
        """SHA-256 over event count, per-site commit order and final stores."""
        digest = hashlib.sha256()
        digest.update(f"events={self.cluster.kernel.events_executed}\n".encode())
        for group in self.groups:
            for site_id in sorted(group.replicas):
                replica = group.replicas[site_id]
                digest.update(f"site={site_id}\n".encode())
                digest.update(",".join(replica.history.transaction_ids()).encode())
                digest.update(repr(sorted(replica.database_contents().items())).encode())
        return digest.hexdigest()

    # --------------------------------------------------------------- checks
    def _scheduler_check(self) -> List[str]:
        try:
            self.cluster.check_scheduler_invariants()
        except SchedulerError as error:
            return [str(error)]
        return []

    def _accounting_check(self) -> List[str]:
        """``committed + failed == offered`` for update offers."""
        committed = sum(
            1 for r in self.replicas() for s in r.submitted.values()
            if s.committed_at is not None
        )
        failed = self.refused() + self.backlog()
        if committed + failed != self.offered_updates:
            return [
                f"committed {committed} + failed {failed} != offered "
                f"{self.offered_updates} update offers"
            ]
        return []


# ---------------------------------------------------------------------------
# Workloads 1-3: one flat replica group, pre-planned submissions
# ---------------------------------------------------------------------------

FLAT_VARIANTS: Dict[str, Dict[str, Any]] = {
    "flat_update": dict(class_count=8, class_skew=0.0, update_interval=0.001),
    "hot_conflict": dict(class_count=3, class_skew=0.8, update_interval=0.001),
    "batched_saturated": dict(
        class_count=8,
        class_skew=0.0,
        update_interval=0.00025,
        batching=BatchingConfig(window=0.002, max_batch_size=16),
        medium_frame_time=0.00022,
    ),
}


class FlatCell(Cell):
    """4 sites, optimistic broadcast with sequencer ordering, default LAN."""

    def __init__(self, name: str, seed: int, *, quick: bool = False,
                 tracer: Optional[TransactionTracer] = None,
                 site_count: int = 4, updates_per_site: Optional[int] = None) -> None:
        variant = dict(FLAT_VARIANTS[name])
        if updates_per_site is None:
            updates_per_site = 40 if quick else 400
        spec = WorkloadSpec(
            class_count=variant.pop("class_count"),
            objects_per_class=20,
            updates_per_site=updates_per_site,
            update_interval=variant.pop("update_interval"),
            update_duration=0.0005,
            class_skew=variant.pop("class_skew"),
        )
        self.cluster = ReplicatedDatabase(
            ClusterConfig(site_count=site_count, seed=seed, tracer=tracer, **variant),
            build_partitioned_registry(spec),
            conflict_map=build_conflict_map(spec),
            initial_data=build_initial_data(spec),
        )
        started = time.perf_counter()
        plan = WorkloadGenerator(spec).apply(self.cluster)
        self.plan_s = time.perf_counter() - started
        self.groups = [self.cluster]
        self.offered_updates = plan.update_count
        self.offered_queries = plan.query_count
        self.window = plan.last_submission_time()

    def verify(self) -> Checks:
        cluster = self.cluster
        endpoints = {s: cluster.broadcast_endpoint(s) for s in cluster.site_ids()}
        return {
            "scheduler_invariants": self._scheduler_check(),
            "one_copy_serializability": check_one_copy_serializability(
                cluster.histories()).violations,
            "broadcast_properties": check_broadcast_properties(endpoints).violations,
            "replica_convergence": [
                f"replicas diverge on {key}" for key in cluster.database_divergence()],
            "liveness": check_eventual_termination(cluster).violations,
            "accounting": self._accounting_check(),
        }


# ---------------------------------------------------------------------------
# Workloads 4-5: sharded clusters
# ---------------------------------------------------------------------------


class ShardedCell(Cell):
    """Shared inspection and checks of the two sharded workloads."""

    cluster: ShardedCluster

    def queries_completed(self) -> int:
        return sum(1 for q in self.cluster.router.sharded_queries if q.is_complete)

    def query_latencies(self) -> List[float]:
        return [
            q.latency for q in self.cluster.router.sharded_queries if q.latency is not None
        ]

    def layer_counts(self, derived: DerivedMetrics) -> Dict[str, float]:
        counts = super().layer_counts(derived)
        router = self.cluster.router
        queries = router.sharded_queries
        if queries:
            counts["sharding.subqueries_per_query"] = (
                sum(len(q.subqueries) for q in queries) / len(queries))
        counts["sharding.router_retries"] = float(
            router.deferred_submissions + router.retried_subqueries)
        return counts

    def verify(self) -> Checks:
        cluster = self.cluster
        # The sharded 1SR check also validates each shard's broadcast properties.
        return {
            "scheduler_invariants": self._scheduler_check(),
            "one_copy_serializability+broadcast_properties":
                check_sharded_one_copy_serializability(cluster).violations,
            "query_consistency": check_cross_shard_query_consistency(cluster).violations,
            "replica_convergence": [
                f"shard {shard} diverges" for shard in cluster.database_divergence()],
            "liveness": check_sharded_eventual_termination(cluster).violations,
            "accounting": self._accounting_check(),
        }


class OpenLoopCell(ShardedCell):
    """4 shards x 3 sites, Poisson offers through admission control."""

    def __init__(self, seed: int, *, quick: bool = False,
                 tracer: Optional[TransactionTracer] = None,
                 rate: float = MEASURED_RATE) -> None:
        self.window = 0.08 if quick else 0.6
        spec = OpenLoopSpec(
            arrivals=PoissonArrivals(rate=rate),
            horizon=self.window,
            class_count=8,
            objects_per_class=20,
            query_fraction=0.3,
            query_span=3,
            update_duration=0.002,
        )
        base = spec.base_spec()
        config = ShardingConfig(
            shard_count=4,
            sites_per_shard=3,
            seed=seed,
            tracer=tracer,
            admission=AdmissionConfig(high_watermark=48, low_watermark=24),
        )
        shard_layout = ShardedWorkloadSpec(shard_count=4, classes_per_shard=2)
        self.cluster = ShardedCluster(
            config,
            build_partitioned_registry(base),
            conflict_map=build_conflict_map(base),
            shard_map=build_shard_map(shard_layout, config.shard_ids()),
            initial_data=build_initial_data(base),
        )
        started = time.perf_counter()
        self.plan = OpenLoopTrafficEngine(spec).apply(self.cluster)
        self.plan_s = time.perf_counter() - started
        self.groups = list(self.cluster.shards.values())
        self.offered_updates = self.plan.update_count
        self.offered_queries = self.plan.query_count

    def refused(self) -> int:
        return self.plan.refused_updates

    def mean_in_flight(self, start: float, end: float) -> float:
        """Time-averaged number of updates submitted and not yet committed."""
        busy = 0.0
        for replica in self.replicas():
            for submitted in replica.submitted.values():
                done = end if submitted.committed_at is None else submitted.committed_at
                busy += max(0.0, min(done, end) - max(submitted.submitted_at, start))
        return busy / (end - start)

    def end_to_end(self, derived: DerivedMetrics) -> Dict[str, float]:
        metrics = super().end_to_end(derived)
        half = self.window / 2
        metrics["in_flight_first_half"] = self.mean_in_flight(0.0, half)
        metrics["in_flight_second_half"] = self.mean_in_flight(half, self.window)
        metrics["shed_share"] = self.plan.refused_updates / max(1, self.offered_updates)
        return metrics


class FailoverCell(ShardedCell):
    """2 shards x 3 sites with heartbeat detectors and two crashes mid-load."""

    #: ``build_chaos_cluster`` fixes the mean update interval of each shard.
    UPDATE_INTERVAL = 0.004

    def __init__(self, seed: int, *, quick: bool = False,
                 tracer: Optional[TransactionTracer] = None) -> None:
        updates_per_shard = 80 if quick else 600
        self.cluster, spec = build_chaos_cluster(
            seed,
            shard_count=2,
            sites_per_shard=3,
            updates_per_shard=updates_per_shard,
            queries=20 if quick else 150,
            failure_detection=FailureDetectionConfig(),
            tracer=tracer,
        )
        load = updates_per_shard * self.UPDATE_INTERVAL
        follower = RandomSource(seed).stream("bench.failover.follower").choice(
            self.cluster.shard("S2").site_ids()[1:])
        self.fault_plan = (
            FaultPlan("bench-failover")
            .crash(coordinator("S1"), at=0.30 * load, duration=0.30 * load)
            .crash(site(follower), at=0.50 * load, duration=0.25 * load)
        )
        self.settle_time = load + 0.5
        started = time.perf_counter()
        plan = ShardedWorkloadGenerator(spec).apply(self.cluster)
        self.plan_s = time.perf_counter() - started
        self.orchestrator = ChaosOrchestrator(self.cluster, self.fault_plan).arm()
        self.groups = list(self.cluster.shards.values())
        self.offered_updates = plan.update_count
        self.offered_queries = plan.query_count
        self.window = plan.last_submission_time()
        self._watch_detectors()

    def _watch_detectors(self) -> None:
        """Count suspicions and view changes through the public listeners.

        Each shard's governor subscribed to the detectors first, so by the
        time these listeners run the coordinator reflects the notification.
        """
        self.suspicions = 0
        self.false_suspicions = 0
        self.view_changes: List[tuple] = []
        for shard_id, shard in self.cluster.shards.items():
            seen = {"coordinator": shard.coordinator_site()}

            def listener(peer: str, suspected: bool, shard=shard, shard_id=shard_id,
                         seen=seen) -> None:
                if suspected:
                    self.suspicions += 1
                    if shard.crash_manager.is_up(peer):
                        self.false_suspicions += 1
                current = shard.coordinator_site()
                if current != seen["coordinator"]:
                    seen["coordinator"] = current
                    self.view_changes.append((self.cluster.now, shard_id, current))

            for detector in shard.failure_detectors.values():
                detector.add_listener(listener)

    def run(self) -> None:
        # Heartbeat detectors tick forever: run past the last fault, stop
        # them, then drain (what execute_chaos_run does with settle_time).
        self.cluster.run(until=self.settle_time)
        self.cluster.stop_failure_detectors()
        self.cluster.run_until_idle()

    def _coordinator_crash_time(self) -> float:
        return next(f.time for f in self.orchestrator.trace if f.action == ACTION_CRASH)

    def end_to_end(self, derived: DerivedMetrics) -> Dict[str, float]:
        metrics = super().end_to_end(derived)
        crashed_at = self._coordinator_crash_time()
        after = [
            s.committed_at
            for replica in self.cluster.shard("S1").replicas.values()
            for s in replica.submitted.values()
            if s.submitted_at > crashed_at and s.committed_at is not None
        ]
        metrics["unavailable_ms"] = to_milliseconds(min(after) - crashed_at)
        return metrics

    def layer_counts(self, derived: DerivedMetrics) -> Dict[str, float]:
        counts = super().layer_counts(derived)
        crashed_at = self._coordinator_crash_time()
        elected = [at for at, shard_id, _ in self.view_changes
                   if shard_id == "S1" and at >= crashed_at]
        counts.update({
            "failure.suspicions": float(self.suspicions),
            "failure.false_suspicions": float(self.false_suspicions),
            "failure.view_changes": float(len(self.view_changes)),
            "chaos.faults_injected": float(self.orchestrator.faults_injected()),
            "database.recovery_transferred_commits": float(sum(
                r.metrics.count("state_transfer_commits") for r in self.replicas())),
        })
        if elected:
            counts["failure.detection_ms"] = to_milliseconds(min(elected) - crashed_at)
        return counts

    def verify(self) -> Checks:
        checks = super().verify()
        checks["recovery_completeness"] = check_recovery_completeness(self.cluster).violations
        planned = len(self.fault_plan)
        injected = self.orchestrator.faults_injected()
        checks["faults_injected_equals_planned"] = (
            [] if injected == planned else [f"injected {injected} of {planned} planned faults"])
        return checks


def build_cell(name: str, seed: int, *, quick: bool = False,
               tracer: Optional[TransactionTracer] = None,
               rate: Optional[float] = None) -> Cell:
    """Set up the named workload (the timed setup phase)."""
    if name in FLAT_VARIANTS:
        return FlatCell(name, seed, quick=quick, tracer=tracer)
    if name == "sharded_open_loop":
        return OpenLoopCell(seed, quick=quick, tracer=tracer,
                            rate=MEASURED_RATE if rate is None else rate)
    if name == "failover_recovery":
        return FailoverCell(seed, quick=quick, tracer=tracer)
    raise ValueError(f"unknown workload {name!r}")
