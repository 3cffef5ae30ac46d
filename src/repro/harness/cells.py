"""Per-cell run functions for design-based sweeps.

Each function here maps one bound :class:`~repro.harness.design.RunSpec` to
one result-table row.  They live at module level so a
:class:`~repro.harness.parallel.SweepExecutor` worker can import them by
dotted path (``"repro.harness.cells:batching_cell"``) — the spec crosses
the process boundary as plain data, the function never does.

Cells must be pure functions of their spec: same spec, same row, no matter
which process runs it.  That is what makes the parallel merge bit-identical
to serial execution.  Cross-cell derived columns (e.g. the batching
ablation's speedup-vs-off) are computed by the owning experiment *after*
the merge, so no cell ever depends on another's output.

The ``*_probe_cell`` functions at the bottom are cheap self-test cells used
by the executor's own test suite (determinism, partial failure, worker
crash); they run no simulation.
"""

from __future__ import annotations

import os
from typing import Dict

from ..broadcast.batching import BatchingConfig
from ..chaos.scenarios import run_chaos_scenario
from ..core.admission import AdmissionConfig
from ..core.cluster import ReplicatedDatabase
from ..core.config import BROADCAST_OPTIMISTIC, ClusterConfig
from ..network.latency import DEFAULT_INTRA_PROFILE, GeoTopology, LinkProfile
from ..observability.registry import derive_metrics
from ..observability.summary import finish_run
from ..simulation.clock import milliseconds, to_milliseconds
from ..simulation.randomness import RandomSource
from ..workloads.arrivals import OpenLoopSpec, OpenLoopTrafficEngine, PoissonArrivals
from ..workloads.generator import WorkloadGenerator
from ..workloads.procedures import (
    build_conflict_map,
    build_initial_data,
    build_partitioned_registry,
)
from ..workloads.specs import WorkloadSpec
from .design import RunSpec
from .experiments import run_standard_workload

__all__ = [
    "batching_cell",
    "chaos_cell",
    "geo_cell",
    "overload_cell",
    "seed_probe_cell",
    "failing_probe_cell",
    "exiting_probe_cell",
]


def batching_cell(spec: RunSpec) -> Dict[str, object]:
    """One (submission interval, batching window) cell of the batching ablation.

    ``speedup_vs_off`` is a cross-cell column (it compares against the
    unbatched cell of the same interval), so the cell emits a ``None``
    placeholder and the experiment fills it in after the ordered merge.
    """
    params = spec.params()
    interval_ms = params["interval_ms"]
    window_ms = params["window_ms"]
    workload = WorkloadSpec(
        class_count=params["class_count"],
        updates_per_site=params["updates_per_site"],
        update_interval=milliseconds(interval_ms),
        update_duration=milliseconds(params["execution_ms"]),
    )
    batching = (
        None
        if window_ms is None
        else BatchingConfig(
            window=milliseconds(window_ms), max_batch_size=params["max_batch_size"]
        )
    )
    summary = run_standard_workload(
        ClusterConfig(
            site_count=params["site_count"],
            seed=params["seed"],
            broadcast=BROADCAST_OPTIMISTIC,
            batching=batching,
            medium_frame_time=params["medium_frame_time"],
        ),
        workload,
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


def chaos_cell(spec: RunSpec) -> Dict[str, object]:
    """One (scenario, seed) cell of the chaos resilience sweep.

    The chaos seed is a declared factor (each seed is a distinct, named
    grid point whose fault trace must reproduce), so the cell reads it from
    the factor assignment rather than from the derived spec seed.  The
    design's ``base`` carries the pass-through sizing overrides.
    """
    params = spec.params()
    run = run_chaos_scenario(
        params["scenario"],
        seed=params["seed"],
        **{key: value for key, value in spec.base.items()},
    )
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


def overload_cell(spec: RunSpec) -> Dict[str, object]:
    """One (offered load, admission mode) cell of the overload sweep.

    The cluster seed lives in the design's ``base`` — *not* in the factor
    grid — so the admission=on and admission=off cells of one offered-load
    level see the **identical** open-loop arrival schedule and differ only
    in whether the watermark valve is armed.  Goodput counts the update
    commits achieved *within the offered-load window* (``committed_at <=
    horizon``): a run that merely parks everything in an unbounded backlog
    and drains it long after the horizon earns no goodput credit for the
    late commits.
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
    admission = (
        AdmissionConfig(
            high_watermark=params["high_watermark"],
            low_watermark=params["low_watermark"],
        )
        if admission_on
        else None
    )
    base_spec = open_spec.base_spec()
    cluster = ReplicatedDatabase(
        ClusterConfig(
            site_count=params["site_count"],
            seed=params["seed"],
            admission=admission,
        ),
        build_partitioned_registry(base_spec),
        conflict_map=build_conflict_map(base_spec),
        initial_data=build_initial_data(base_spec),
    )
    plan = OpenLoopTrafficEngine(open_spec).apply(cluster)
    summary = finish_run(cluster)
    derived = derive_metrics(cluster)

    committed_in_window = 0
    for replica in cluster.replicas.values():
        for submitted in replica.submitted.values():
            if submitted.committed_at is not None and submitted.committed_at <= horizon:
                committed_in_window += 1
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


def geo_cell(spec: RunSpec) -> Dict[str, object]:
    """One cross-region-delay cell of the geo divergence sweep."""
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
    workload = WorkloadSpec(
        class_count=params["class_count"],
        updates_per_site=params["updates_per_site"],
        update_interval=params["update_interval"],
        update_duration=milliseconds(params["execution_ms"]),
    )
    cluster = ReplicatedDatabase(
        ClusterConfig(
            site_count=params["site_count"], seed=params["seed"], topology=topology
        ),
        build_partitioned_registry(workload),
        conflict_map=build_conflict_map(workload),
        initial_data=build_initial_data(workload),
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


# --------------------------------------------------------------------------
# Self-test cells (no simulation; used by the executor's own tests)
# --------------------------------------------------------------------------


def seed_probe_cell(spec: RunSpec) -> Dict[str, object]:
    """Echo the spec's identity plus a draw from its derived seed.

    The draw goes through the seeded-randomness boundary
    (:class:`~repro.simulation.randomness.RandomSource`), so two processes —
    or two ``PYTHONHASHSEED`` universes — executing the same spec must
    produce identical rows.
    """
    stream = RandomSource(spec.seed).stream("probe")
    row: Dict[str, object] = dict(spec.factors)
    row["seed_index"] = spec.seed_index
    row["derived_seed"] = spec.seed
    row["probe_draw"] = stream.randint(0, 10**9)
    return row


def failing_probe_cell(spec: RunSpec) -> Dict[str, object]:
    """A cell that raises when its factor assignment says ``fail=True``."""
    if spec.factors.get("fail"):
        raise ValueError(f"cell {spec.label()} was told to fail")
    return seed_probe_cell(spec)


def exiting_probe_cell(spec: RunSpec) -> Dict[str, object]:
    """A cell that kills its worker process outright when told to.

    ``os._exit`` bypasses all exception handling — the worker dies without
    returning, which is how the tests exercise the executor's
    broken-pool path (a real segfault looks the same from the parent).
    """
    if spec.factors.get("fail"):
        os._exit(17)
    return seed_probe_cell(spec)
