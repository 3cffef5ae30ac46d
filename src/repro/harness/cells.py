"""Per-cell run functions: each maps one bound spec to one result-table row.

Every registered experiment (:data:`repro.harness.experiments.EXPERIMENTS`)
is a :class:`~repro.harness.design.Design` over one function here.  They
live at module level so a :class:`~repro.harness.parallel.SweepExecutor`
worker can import them by dotted path (``"repro.harness.cells:batching_cell"``)
— the spec crosses the process boundary as plain data, the function never
does.

Cells must be pure functions of their spec: same spec, same row, no matter
which process runs it.  That is what makes the parallel merge bit-identical
to serial execution.  A cell reads its seed from ``spec.params()`` (a base
parameter or a factor of the design), never from the derived ``spec.seed``,
so a cell's random draws depend only on the parameters the table reports.
Cross-cell derived columns (the batching ablation's speedup-vs-off) are
filled in by the experiment's ``finish`` hook *after* the merge, so no cell
ever depends on another's output.

The ``*_probe_cell`` functions at the bottom are cheap self-test cells used
by the executor's own test suite (determinism, partial failure, worker
crash); they run no simulation.
"""

from __future__ import annotations

import os
from typing import Dict, Tuple

from ..broadcast.batching import BatchingConfig
from ..broadcast.spontaneous import (
    PeriodicMulticastSource,
    order_agreement,
    receive_sequences,
    tentative_vs_definitive_mismatch,
)
from ..chaos.scenarios import run_chaos_scenario
from ..core.admission import AdmissionConfig
from ..core.cluster import ReplicatedDatabase
from ..core.config import (
    BROADCAST_CONSERVATIVE,
    BROADCAST_LAZY,
    BROADCAST_OPTIMISTIC,
    ClusterConfig,
    ShardingConfig,
)
from ..metrics.stats import mean
from ..network.latency import (
    DEFAULT_INTRA_PROFILE,
    GeoTopology,
    LanMulticastLatency,
    LinkProfile,
)
from ..network.transport import NetworkTransport
from ..observability.registry import derive_metrics
from ..observability.summary import RunSummary, finish_run
from ..sharding.cluster import ShardedCluster
from ..simulation.clock import milliseconds, to_milliseconds
from ..simulation.kernel import SimulationKernel
from ..simulation.randomness import RandomSource
from ..workloads.arrivals import OpenLoopSpec, OpenLoopTrafficEngine, PoissonArrivals
from ..workloads.generator import WorkloadGenerator
from ..workloads.procedures import (
    build_conflict_map,
    build_initial_data,
    build_partitioned_registry,
)
from ..workloads.sharded import (
    ShardedWorkloadGenerator,
    ShardedWorkloadSpec,
    build_shard_map,
)
from ..workloads.specs import WorkloadSpec
from .design import RunSpec

Row = Dict[str, object]


# --------------------------------------------------------------------------
# Shared machinery
# --------------------------------------------------------------------------


def _flat_cluster(config: ClusterConfig, spec: WorkloadSpec) -> ReplicatedDatabase:
    """A flat cluster loaded with ``spec``'s procedures, classes and data."""
    return ReplicatedDatabase(
        config,
        build_partitioned_registry(spec),
        conflict_map=build_conflict_map(spec),
        initial_data=build_initial_data(spec),
    )


def run_standard_workload(config: ClusterConfig, spec: WorkloadSpec) -> RunSummary:
    """Build a cluster, apply the standard workload, run to completion and verify."""
    cluster = _flat_cluster(config, spec)
    WorkloadGenerator(spec).apply(cluster)
    return finish_run(cluster)


def run_sharded_workload(config: ShardingConfig, spec: ShardedWorkloadSpec) -> RunSummary:
    """Build a sharded cluster, apply the sharded workload, run and verify.

    The summary's query figures are the *routed* queries' (fan-out to merge),
    not the per-replica sub-queries'.
    """
    base_spec = spec.base_spec()
    cluster = ShardedCluster(
        config,
        build_partitioned_registry(base_spec),
        conflict_map=build_conflict_map(base_spec),
        shard_map=build_shard_map(spec, config.shard_ids()),
        initial_data=build_initial_data(base_spec),
    )
    ShardedWorkloadGenerator(spec).apply(cluster)
    summary = finish_run(cluster)
    query_latencies = [
        query.latency
        for query in cluster.router.sharded_queries
        if query.latency is not None
    ]
    return summary._replace(
        mean_query_latency=mean(query_latencies),
        queries_completed=len(query_latencies),
    )


def _workload(params: Row, **fields: object) -> WorkloadSpec:
    """The cell's standard workload; ``fields`` add or replace spec fields."""
    sizing: Row = dict(
        class_count=params["class_count"],
        updates_per_site=params["updates_per_site"],
        update_duration=milliseconds(params["execution_ms"]),
    )
    if "update_interval" in params:
        sizing["update_interval"] = params["update_interval"]
    sizing.update(fields)
    return WorkloadSpec(**sizing)


def _run_flat(
    params: Row, workload: WorkloadSpec, broadcast: str = BROADCAST_OPTIMISTIC, **config
) -> RunSummary:
    """Run ``workload`` on a flat cluster of the cell's sites and seed."""
    cell = dict(site_count=params["site_count"], seed=params["seed"], broadcast=broadcast)
    return run_standard_workload(ClusterConfig(**cell, **config), workload)


def _run_both(
    params: Row, workload: WorkloadSpec, **config
) -> Tuple[RunSummary, RunSummary]:
    """The same workload under OTP and under conservative processing."""
    return (
        _run_flat(params, workload, BROADCAST_OPTIMISTIC, **config),
        _run_flat(params, workload, BROADCAST_CONSERVATIVE, **config),
    )


def figure1_cell(spec: RunSpec) -> Row:
    """One inter-broadcast interval of paper Figure 1.

    Every site multicasts ``messages_per_site`` probe messages, one every
    ``interval_ms``; the row reports which percentage arrived at the same
    position at every site.  The network mirrors the paper's testbed: a
    shared 10 Mbit/s Ethernet serialises frames (``medium_frame_time``
    models a ~1 KB frame) and the residual per-receiver processing jitter
    (``receiver_jitter_mean``) is what occasionally reorders messages.
    """
    params = spec.params()
    kernel = SimulationKernel(seed=params["seed"])
    transport = NetworkTransport(
        kernel,
        LanMulticastLatency(receiver_jitter_mean=params["receiver_jitter_mean"]),
        record_deliveries=True,
        medium_frame_time=params["medium_frame_time"],
    )
    sites = [f"N{index + 1}" for index in range(params["site_count"])]
    for site in sites:
        transport.register_site(site, lambda envelope: None)
    for site in sites:
        PeriodicMulticastSource(
            kernel,
            transport,
            site,
            interval=milliseconds(params["interval_ms"]),
            message_count=params["messages_per_site"],
        ).start()
    kernel.run_until_idle()
    sequences = receive_sequences(transport.delivery_log)
    report = order_agreement(sequences)
    # Opt/TO divergence: take the definitive total order to be the
    # coordinator's receive sequence (exactly what the sequencer modes do)
    # and measure the fraction of messages every other site received at a
    # different position — the work CC8 would have to repair.
    definitive = sequences.get(sites[0], [])
    divergences = [
        tentative_vs_definitive_mismatch(sequences.get(site, []), definitive)
        for site in sites[1:]
    ]
    return dict(
        interval_ms=params["interval_ms"],
        spontaneously_ordered_pct=report.same_position_percentage,
        pairwise_agreement_pct=100.0 * report.pairwise_agreement_fraction,
        opt_to_divergence_pct=100.0 * mean(divergences),
        messages=report.message_count,
    )


def overlap_cell(spec: RunSpec) -> Row:
    """One execution time of claim C1: OTP vs. conservative latency.

    The conservative baseline pays ordering delay + execution serially; OTP
    overlaps them and pays roughly their maximum (Sections 1 and 3).
    """
    params = spec.params()
    optimistic, conservative = _run_both(params, _workload(params))
    return dict(
        execution_ms=params["execution_ms"],
        otp_latency_ms=to_milliseconds(optimistic.mean_client_latency),
        conservative_latency_ms=to_milliseconds(conservative.mean_client_latency),
        latency_saving_ms=to_milliseconds(
            conservative.mean_client_latency - optimistic.mean_client_latency
        ),
        ordering_delay_ms=to_milliseconds(optimistic.mean_ordering_delay),
        otp_aborts=optimistic.reorder_aborts,
        one_copy_ok=optimistic.one_copy_ok and conservative.one_copy_ok,
    )


def conflict_cell(spec: RunSpec) -> Row:
    """One conflict-class count of claim C2, under a bursty submission pattern.

    With very short inter-submission intervals the tentative order often
    differs from the definitive one; CC8 abort/reschedule work falls as
    transactions spread over more classes while the mismatch rate stays put.
    """
    params = spec.params()
    summary = _run_flat(params, _workload(params))
    executions = (summary.committed or 1) * params["site_count"]
    return dict(
        class_count=params["class_count"],
        mismatch_pct=100.0 * summary.mismatch_fraction,
        reorder_aborts=summary.reorder_aborts,
        aborts_per_100_txn=100.0 * summary.reorder_aborts / executions,
        latency_ms=to_milliseconds(summary.mean_client_latency),
        one_copy_ok=summary.one_copy_ok,
    )


def tradeoff_cell(spec: RunSpec) -> Row:
    """One per-receiver jitter level of claim C5 (the optimism trade-off).

    Low jitter makes optimism free; WAN-like jitter raises mismatches and
    aborts and shrinks OTP's advantage (Section 2.1).  Both runs must be 1SR.
    """
    params = spec.params()
    jitter_us = params["receiver_jitter_us"]
    optimistic, conservative = _run_both(
        params,
        _workload(params),
        latency_model=LanMulticastLatency(receiver_jitter_mean=jitter_us / 1_000_000.0),
    )
    return dict(
        receiver_jitter_us=jitter_us,
        mismatch_pct=100.0 * optimistic.mismatch_fraction,
        reorder_aborts=optimistic.reorder_aborts,
        otp_latency_ms=to_milliseconds(optimistic.mean_client_latency),
        conservative_latency_ms=to_milliseconds(conservative.mean_client_latency),
        otp_advantage_ms=to_milliseconds(
            conservative.mean_client_latency - optimistic.mean_client_latency
        ),
        one_copy_ok=optimistic.one_copy_ok and conservative.one_copy_ok,
    )


def lazy_cell(spec: RunSpec) -> Row:
    """One system of claim C3: ``system="otp"`` or asynchronous ``"lazy"``.

    Both run the identical workload on the one cluster and are verified
    alike.  Lazy replication commits locally before coordinating, so its
    latency is lower, but it pays with lost updates; ``check_cluster``
    rejects its histories, while OTP keeps 1-copy-serializability.
    """
    params = spec.params()
    workload = _workload(params)
    broadcast = BROADCAST_LAZY if params["system"] == "lazy" else BROADCAST_OPTIMISTIC
    cluster = _flat_cluster(
        ClusterConfig(
            site_count=params["site_count"], seed=params["seed"], broadcast=broadcast
        ),
        workload,
    )
    WorkloadGenerator(workload).apply(cluster)
    summary = finish_run(cluster)
    return dict(
        system=params["system"],
        mean_latency_ms=to_milliseconds(summary.mean_client_latency),
        p90_latency_ms=to_milliseconds(summary.p90_client_latency),
        committed=summary.committed,
        lost_updates=sum(
            replica.metrics.count("lost_updates") for replica in cluster.replicas.values()
        ),
        divergent_objects=len(cluster.database_divergence()),
        one_copy_serializable=summary.verification.ok,
    )


def query_cell(spec: RunSpec) -> Row:
    """One per-site query load of claim C4 (Section 5 snapshot queries).

    Queries read multi-version snapshots and never enter the class queues,
    so update commit latency must stay flat as the query load grows.
    """
    params = spec.params()
    summary = _run_flat(
        params,
        _workload(
            params,
            queries_per_site=params["queries_per_site"],
            query_interval=params["update_interval"],
            query_span=params["query_span"],
            query_duration=milliseconds(params["query_ms"]),
        ),
    )
    return dict(
        queries_per_site=params["queries_per_site"],
        update_latency_ms=to_milliseconds(summary.mean_client_latency),
        query_latency_ms=to_milliseconds(summary.mean_query_latency),
        queries_completed=summary.queries_completed,
        one_copy_ok=summary.one_copy_ok,
    )


def scalability_cell(spec: RunSpec) -> Row:
    """One cluster size: OTP vs. conservative throughput and latency.

    Atomic broadcast scalability motivates the paper (Section 1); every
    site submits the same load, so the offered load grows with the sites.
    """
    params = spec.params()
    optimistic, conservative = _run_both(params, _workload(params))
    return dict(
        site_count=params["site_count"],
        otp_throughput_tps=optimistic.throughput_tps,
        conservative_throughput_tps=conservative.throughput_tps,
        otp_latency_ms=to_milliseconds(optimistic.mean_client_latency),
        conservative_latency_ms=to_milliseconds(conservative.mean_client_latency),
        one_copy_ok=optimistic.one_copy_ok and conservative.one_copy_ok,
    )


def sharded_cell(spec: RunSpec) -> Row:
    """One shard count at fixed per-shard load (one broadcast group per shard).

    With one global group the sequencer serialises every update; with one
    group per shard the aggregate committed throughput grows with the shard
    count while per-transaction latency stays flat.
    """
    params = spec.params()
    shard_count = params["shard_count"]
    summary = run_sharded_workload(
        ShardingConfig(
            shard_count=shard_count,
            sites_per_shard=params["sites_per_shard"],
            seed=params["seed"],
        ),
        ShardedWorkloadSpec(
            shard_count=shard_count,
            classes_per_shard=params["classes_per_shard"],
            updates_per_shard=params["updates_per_shard"],
            update_interval=params["update_interval"],
            queries=params["queries"],
            query_span=params["query_span"],
            update_duration=milliseconds(params["execution_ms"]),
        ),
    )
    return dict(
        shard_count=shard_count,
        total_committed=summary.committed,
        aggregate_throughput_tps=summary.throughput_tps,
        mean_latency_ms=to_milliseconds(summary.mean_client_latency),
        query_latency_ms=to_milliseconds(summary.mean_query_latency),
        queries_completed=summary.queries_completed,
        one_copy_ok=summary.one_copy_ok and summary.broadcast_ok,
        queries_consistent=summary.queries_consistent,
    )


def batching_cell(spec: RunSpec) -> Row:
    """One (submission interval, batching window) cell of the batching ablation.

    Every data and order frame occupies the shared medium, so at high rates
    ordering traffic saturates it; a window divides both frame counts by the
    mean batch size.  ``speedup_vs_off`` is left ``None`` for the merge.
    """
    params = spec.params()
    interval_ms = params["interval_ms"]
    window_ms = params["window_ms"]
    batching = (
        None
        if window_ms is None
        else BatchingConfig(
            window=milliseconds(window_ms), max_batch_size=params["max_batch_size"]
        )
    )
    summary = _run_flat(
        params,
        _workload(params, update_interval=milliseconds(interval_ms)),
        batching=batching,
        medium_frame_time=params["medium_frame_time"],
    )
    return dict(
        interval_ms=interval_ms,
        window_ms=0.0 if window_ms is None else window_ms,
        batching="off" if window_ms is None else "on",
        throughput_tps=summary.throughput_tps,
        speedup_vs_off=None,
        committed=summary.committed,
        latency_ms=to_milliseconds(summary.mean_client_latency),
        reorder_aborts=summary.reorder_aborts,
        one_copy_ok=summary.one_copy_ok,
        broadcast_ok=summary.broadcast_ok,
    )


def overload_cell(spec: RunSpec) -> Row:
    """One (offered load, admission mode) cell of the open-loop overload sweep.

    The seed is a base value, so both admission modes of one load level see
    the **identical** Poisson schedule and differ only in the watermark
    valve.  Goodput counts commits *within the offered-load window*
    (``committed_at <= horizon``): a backlog drained later earns nothing.
    """
    params = spec.params()
    offered_tps = float(params["offered_tps"])
    admission_on = params["admission"] == "on"
    horizon = params["horizon"]
    open_spec = OpenLoopSpec(
        arrivals=PoissonArrivals(rate=offered_tps),
        horizon=horizon,
        class_count=params["class_count"],
        update_duration=milliseconds(params["execution_ms"]),
    )
    admission = None
    if admission_on:
        admission = AdmissionConfig(
            high_watermark=params["high_watermark"], low_watermark=params["low_watermark"]
        )
    cluster = _flat_cluster(
        ClusterConfig(
            site_count=params["site_count"], seed=params["seed"], admission=admission
        ),
        open_spec.base_spec(),
    )
    plan = OpenLoopTrafficEngine(open_spec).apply(cluster)
    summary = finish_run(cluster)
    derived = derive_metrics(cluster)
    committed_in_window = sum(
        1
        for replica in cluster.replicas.values()
        for submitted in replica.submitted.values()
        if submitted.committed_at is not None and submitted.committed_at <= horizon
    )
    latency = derived.phase_breakdown["client_commit_latency"]
    return dict(
        offered_tps=offered_tps,
        admission=params["admission"],
        offered=plan.update_count,
        admitted=derived.admitted if admission_on else plan.update_count,
        shed=sum(derived.sheds_by_cause.values()),
        committed=summary.committed,
        goodput_tps=committed_in_window / horizon,
        p50_ms=to_milliseconds(latency.p50),
        p95_ms=to_milliseconds(latency.p95),
        p99_ms=to_milliseconds(latency.p99),
        max_queue_depth=derived.max_class_queue_depth,
        one_copy_ok=summary.one_copy_ok,
    )


def geo_cell(spec: RunSpec) -> Row:
    """One cross-region delay of the geo divergence sweep.

    Spontaneous total order is a LAN phenomenon: on a striped WAN topology
    a message reaches same-region peers in microseconds but other regions
    milliseconds later, so concurrent transactions from different regions
    interleave differently at every site.  The row reports the opt/TO
    divergence rate (via :func:`~repro.observability.registry.derive_metrics`)
    against the resulting round-trip spread.
    """
    params = spec.params()
    cross_ms = params["cross_base_ms"]
    topology = GeoTopology.striped(
        tuple(params["regions"]),
        intra=DEFAULT_INTRA_PROFILE,
        cross=LinkProfile(
            base=milliseconds(cross_ms),
            jitter=params["cross_jitter_fraction"] * milliseconds(cross_ms),
        ),
    )
    workload = _workload(params)
    cluster = _flat_cluster(
        ClusterConfig(
            site_count=params["site_count"], seed=params["seed"], topology=topology
        ),
        workload,
    )
    WorkloadGenerator(workload).apply(cluster)
    summary = finish_run(cluster)
    derived = derive_metrics(cluster)
    return dict(
        cross_base_ms=cross_ms,
        rtt_spread_ms=2.0 * to_milliseconds(topology.one_way_spread()),
        opt_to_divergence_pct=100.0 * derived.opt_to_divergence_rate,
        ordering_delay_ms=to_milliseconds(summary.mean_ordering_delay),
        committed=derived.commits,
        one_copy_ok=summary.one_copy_ok,
    )


def chaos_cell(spec: RunSpec) -> Row:
    """One (scenario, seed) cell of the chaos resilience sweep.

    The chaos seed is a declared factor: each seed is a distinct, named
    grid point whose fault trace must reproduce.
    """
    params = spec.params()
    run = run_chaos_scenario(params["scenario"], seed=params["seed"])
    return dict(
        scenario=params["scenario"],
        seed=params["seed"],
        faults_injected=run.faults_injected,
        committed=run.committed,
        submitted=run.submitted_updates,
        one_copy_ok=run.one_copy_ok,
        queries_consistent=run.queries_consistent,
        liveness_ok=run.liveness_ok,
        faults_cease_at_ms=to_milliseconds(run.faults_cease_at),
    )


# --------------------------------------------------------------------------
# Self-test cells (no simulation; used by the executor's own tests)
# --------------------------------------------------------------------------


def seed_probe_cell(spec: RunSpec) -> Row:
    """Echo the spec's identity plus a draw from its derived seed.

    The draw goes through the seeded-randomness boundary
    (:class:`~repro.simulation.randomness.RandomSource`), so two processes —
    or two ``PYTHONHASHSEED`` universes — executing the same spec must
    produce identical rows.
    """
    stream = RandomSource(spec.seed).stream("probe")
    row: Row = dict(spec.factors)
    row["seed_index"] = spec.seed_index
    row["derived_seed"] = spec.seed
    row["probe_draw"] = stream.randint(0, 10**9)
    return row


def failing_probe_cell(spec: RunSpec) -> Row:
    """A cell that raises when its factor assignment says ``fail=True``."""
    if spec.factors.get("fail"):
        raise ValueError(f"cell {spec.label()} was told to fail")
    return seed_probe_cell(spec)


def exiting_probe_cell(spec: RunSpec) -> Row:
    """A cell that kills its worker process outright when told to.

    ``os._exit`` bypasses all exception handling — the worker dies without
    returning, which is how the tests exercise the executor's
    broken-pool path (a real segfault looks the same from the parent).
    """
    if spec.factors.get("fail"):
        os._exit(17)
    return seed_probe_cell(spec)
