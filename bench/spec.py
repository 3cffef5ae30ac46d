"""What the benchmark measures: workloads, metrics, directions and bounds.

``BENCHMARK.json`` is the driver's view of this module (the schema test in
``bench/tests`` keeps the two in agreement).  It lists as ``end_to_end``
only ``DRIVER_END_TO_END``: the metrics that exist on every workload, are
never zero and are steady when the *seed* changes from run to run.
Everything else this module declares — including the other end-to-end
metrics — is listed there under ``per_layer``, which carries no bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Workload name -> why it exists.  Names are fixed; later issues cite them.
WORKLOADS: Dict[str, str] = {
    "flat_update": (
        "4 sites, 8 classes, 400 updates/site at 1 ms: the paper's deployment; "
        "core, database and broadcast self-time dominate the run, verification the cell"
    ),
    "hot_conflict": (
        "3 classes at Zipf 0.8: deep class queues, CC8 abort/reschedule and "
        "execution cancel do the work; the network does no more than in flat_update"
    ),
    "batched_saturated": (
        "batching window 2 ms on a 220 us shared medium at 0.25 ms intervals: "
        "kernel events per commit halve, so kernel and network gains show here"
    ),
    "sharded_open_loop": (
        "4 shards x 3 sites, Poisson offers at 5000 op/s with 30% cross-shard "
        "queries behind admission control: router, snapshot reads and arrivals live only here"
    ),
    "failover_recovery": (
        "2 shards x 3 sites with heartbeat detectors; a coordinator and a follower "
        "crash mid-load: detectors, governor, redo-log state transfer and rejoin run only here"
    ),
}

ALL: Tuple[str, ...] = tuple(WORKLOADS)
QUERY_WORKLOADS: Tuple[str, ...] = ("sharded_open_loop", "failover_recovery")

#: Offered-rate ladder of ``sharded_open_loop`` (op/s).  Host metrics and
#: latencies come from ``MEASURED_RATE``; the other rungs run once each.
RATE_LADDER: Tuple[float, ...] = (3000.0, 5000.0, 7000.0)
MEASURED_RATE = 5000.0
#: Limits a rung must meet to count for ``max_rate_within_limit_tps``.
LIMIT_COMMIT_P99_MS = 50.0
LIMIT_FAILED_SHARE = 0.01
#: A backlog counts as growing when the mean number of updates in flight over
#: the second half of the horizon exceeds this multiple of the first half's
#: (a stationary system gives about 1, arrivals outrunning service about 3).
LIMIT_IN_FLIGHT_GROWTH = 2.0


@dataclass(frozen=True)
class Metric:
    """One declared metric.

    ``clock`` says what is measured: ``host`` seconds of this machine,
    ``virtual`` time of the modelled database or a ``count``; the last two
    are exact for a given seed and number of reps.  ``bound`` is the share of
    the parent's median by which the metric may get worse; ``abs_bound``
    replaces it for a metric whose healthy value is zero.
    """

    name: str
    unit: str
    clock: str
    better: str
    bound: Optional[float] = None
    abs_bound: Optional[float] = None
    workloads: Tuple[str, ...] = ALL

    @property
    def exact(self) -> bool:
        """Whether two measurements of one seed on one commit must be identical."""
        return self.clock != "host"


END_TO_END: Tuple[Metric, ...] = (
    # child process start -> ready to run (imports + cluster + plan scheduling)
    Metric("setup_s", "s", "host", "lower", 0.25),
    # distinct committed updates / host seconds of the run phase: the engine's speed
    Metric("commits_per_s", "txn/s", "host", "higher", 0.25),
    # the same commits / host seconds of setup+run+report+verify: what a cell costs
    Metric("cell_commits_per_s", "txn/s", "host", "higher", 0.25),
    # child ru_maxrss at exit
    Metric("peak_rss_mb", "MiB", "host", "lower", 0.10),
    # client submit -> commit at the origin site
    Metric("commit_p50_ms", "ms", "virtual", "lower", 0.01),
    Metric("commit_p99_ms", "ms", "virtual", "lower", 0.01),
    # commits inside the offered window / window length
    Metric("goodput_tps", "txn/s", "virtual", "higher", 0.10),
    # (offered updates + queries - committed or completed) / offered
    Metric("failed_share", "ratio", "virtual", "lower", abs_bound=0.001),
    Metric("query_p99_ms", "ms", "virtual", "lower", 0.01, workloads=QUERY_WORKLOADS),
    # highest ladder rate with p99 <= 50 ms, failed <= 1 % and no growing backlog
    Metric("max_rate_within_limit_tps", "op/s", "virtual", "higher", 0.0,
           workloads=("sharded_open_loop",)),
    # coordinator crash -> first commit of an update submitted after it
    Metric("unavailable_ms", "ms", "virtual", "lower", 0.01, workloads=("failover_recovery",)),
    # 1 iff the first sub-seed reaches the same state digest under another PYTHONHASHSEED
    Metric("state_digest_stable", "0/1", "count", "higher", 0.0),
)

#: The end-to-end metrics the driver bounds (see the module docstring).
DRIVER_END_TO_END: Tuple[str, ...] = (
    "setup_s", "commits_per_s", "cell_commits_per_s", "peak_rss_mb", "goodput_tps",
)

#: Packages whose cProfile self-time gets its own ledger row.  Every other
#: frame (builtins, stdlib, the bench itself, remaining packages) is
#: ``host.other`` and what cProfile attributes to no frame is
#: ``host.profiler``, so the column sums to the traced run-phase wall.
LEDGER_LAYERS: Tuple[str, ...] = (
    "simulation", "network", "broadcast", "core", "database", "metrics",
    "workloads", "sharding", "failure", "chaos",
)


def _layer(name: str, unit: str, clock: str, better: str = "lower",
           workloads: Tuple[str, ...] = ALL) -> Metric:
    return Metric(name, unit, clock, better, workloads=workloads)


PER_LAYER: Tuple[Metric, ...] = (
    # simulation
    _layer("simulation.events_per_commit", "count", "count"),
    _layer("simulation.events_per_s", "1/s", "host", "higher"),
    _layer("simulation.peak_pending_events", "count", "count"),
    _layer("simulation.probe_event_us", "us", "host"),
    _layer("simulation.probe_event_deep_heap_us", "us", "host"),
    # network
    _layer("network.envelopes_per_commit", "count", "count"),
    _layer("network.multicasts_per_commit", "count", "count"),
    _layer("network.retransmissions", "count", "count"),
    _layer("network.probe_multicast_us", "us", "host"),
    # broadcast
    _layer("broadcast.control_msgs_per_commit", "count", "count"),
    _layer("broadcast.opt_to_mismatch_share", "ratio", "count"),
    _layer("broadcast.msgs_per_batch", "count", "count", "higher"),
    _layer("broadcast.delivery_log_len_max", "count", "count"),
    _layer("broadcast.ordering_delay_p50_ms", "ms", "virtual"),
    _layer("broadcast.ordering_delay_p99_ms", "ms", "virtual"),
    _layer("broadcast.probe_abcast_us", "us", "host"),
    _layer("broadcast.probe_batched_abcast_us", "us", "host"),
    # core
    _layer("core.reorder_aborts_per_commit", "ratio", "count"),
    _layer("core.class_queue_depth_max", "count", "count"),
    _layer("core.shed_share_r7000", "ratio", "count", workloads=("sharded_open_loop",)),
    _layer("core.deferred", "count", "count"),
    _layer("core.opt_deliver_to_commit_p99_ms", "ms", "virtual"),
    _layer("core.to_deliver_to_commit_p99_ms", "ms", "virtual"),
    _layer("core.probe_single_site_us_per_commit", "us", "host"),
    # database
    _layer("database.writes_per_commit", "count", "count"),
    _layer("database.reads_per_commit", "count", "count"),
    _layer("database.snapshot_reads_per_query", "count", "count", workloads=QUERY_WORKLOADS),
    _layer("database.versions_per_key_max", "count", "count"),
    _layer("database.redo_log_len_max", "count", "count"),
    _layer("database.recovery_transferred_commits", "count", "count",
           workloads=("failover_recovery",)),
    _layer("database.probe_install_us", "us", "host"),
    _layer("database.probe_class_of_key_us_8", "us", "host"),
    _layer("database.probe_class_of_key_us_64", "us", "host"),
    _layer("database.probe_snapshot_read_us", "us", "host"),
    # metrics
    _layer("metrics.samples_per_commit", "count", "count"),
    _layer("metrics.probe_increment_us", "us", "host"),
    _layer("metrics.probe_record_latency_us", "us", "host"),
    # workloads
    _layer("workloads.plan_s", "s", "host"),
    _layer("workloads.offer_lateness_ms", "ms", "virtual"),
    # sharding
    _layer("sharding.subqueries_per_query", "count", "count", workloads=QUERY_WORKLOADS),
    _layer("sharding.router_retries", "count", "count", workloads=QUERY_WORKLOADS),
    # failure
    _layer("failure.heartbeats_per_virtual_s", "1/s", "count", workloads=("failover_recovery",)),
    _layer("failure.suspicions", "count", "count", workloads=("failover_recovery",)),
    _layer("failure.false_suspicions", "count", "count", workloads=("failover_recovery",)),
    _layer("failure.view_changes", "count", "count", workloads=("failover_recovery",)),
    _layer("failure.detection_ms", "ms", "virtual", workloads=("failover_recovery",)),
    # chaos
    _layer("chaos.faults_injected", "count", "count", "higher", workloads=("failover_recovery",)),
    # verification
    _layer("verification.check_s", "s", "host"),
    _layer("verification.check_us_per_commit", "us", "host"),
    _layer("verification.probe_check_s_600", "s", "host"),
    _layer("verification.probe_check_s_2400", "s", "host"),
    _layer("verification.onecopy_scaling_exponent", "ratio", "host"),
    # observability
    _layer("observability.derive_s", "s", "host"),
    _layer("observability.probe_derive_s_600", "s", "host"),
    _layer("observability.probe_derive_s_2400", "s", "host"),
    _layer("observability.derive_scaling_exponent", "ratio", "host"),
    _layer("observability.tracer_overhead_pct", "%", "host"),
    _layer("observability.tracer_events_per_commit", "count", "count"),
    # harness
    _layer("harness.probe_sweep_overhead_ms_per_cell", "ms", "host"),
    _layer("harness.sweep_speedup_jobs2", "ratio", "host", "higher"),
    # the self-time ledger (one traced rep under cProfile)
    *(_layer(f"{layer}.self_us_per_commit", "us", "host") for layer in LEDGER_LAYERS),
    _layer("host.other_self_us_per_commit", "us", "host"),
    _layer("host.profiler_self_us_per_commit", "us", "host"),
)


def metrics_by_name() -> Dict[str, Metric]:
    """Every declared metric, end-to-end first."""
    return {metric.name: metric for metric in END_TO_END + PER_LAYER}


def declared_for(workload: str) -> List[Metric]:
    """The metrics declared on ``workload``, end-to-end first."""
    return [m for m in END_TO_END + PER_LAYER if workload in m.workloads]
