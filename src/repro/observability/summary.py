"""The one post-run pipeline: run to idle, verify, summarise.

Every consumer of a finished run — the workload runners, the chaos and fuzz
executors, the sweep cells — ends in :func:`finish_run`, written once over
the one cluster shape (``cluster.replica_groups()``: a flat cluster is one
group, a sharded one a group per shard).
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional

from ..metrics.stats import mean, percentile
from ..verification.sharded import ClusterVerificationReport, check_cluster
from .registry import MetricsRegistry, build_registry, divergence_by_site


class LoadSummary(NamedTuple):
    """Load observed by a set of replica groups: one group, or all of them.

    ``committed`` counts distinct update transactions (each group's converged
    commit count, summed); ``throughput_tps`` divides it by ``duration``, the
    busy window from first submission to last commit — the rate a client of
    those groups observes.
    """

    committed: int
    throughput_tps: float
    mean_client_latency: float
    p90_client_latency: float
    mean_ordering_delay: float
    reorder_aborts: int
    queries_completed: int
    duration: float


class RunSummary(NamedTuple):
    """Outcome of one verified cluster run: totals, a row per group, verdicts.

    The first eight fields are the :class:`LoadSummary` of all groups
    together.  ``mean_query_latency`` / ``queries_completed`` read the
    replicas' query instruments — the sub-queries, on a cluster that routes
    queries.
    """

    committed: int
    throughput_tps: float
    mean_client_latency: float
    p90_client_latency: float
    mean_ordering_delay: float
    reorder_aborts: int
    queries_completed: int
    duration: float
    mismatch_fraction: float
    mean_query_latency: float
    groups: Dict[str, LoadSummary]
    #: Per-group verdicts split by layer; ``verification`` has the detail.
    one_copy_ok: bool
    broadcast_ok: bool
    queries_consistent: bool
    verification: ClusterVerificationReport


def _load(groups: List[Any], registry: MetricsRegistry, **labels: str) -> Dict[str, Any]:
    """The :class:`LoadSummary` fields of ``groups``.

    Instruments are label-filtered reads of ``registry``; only the client's
    submission bookkeeping, which lives outside the collectors, is read off
    the replicas.  Samples keep registry order — sites as ``site_ids()``
    returns them, never ``sorted()`` (``"N10" < "N2"``) — or the last bits
    of a mean move.
    """
    submit_times: List[float] = []
    commit_times: List[float] = []
    for group in groups:
        for replica in group.replicas.values():
            for submitted in replica.submitted.values():
                submit_times.append(submitted.submitted_at)
                if submitted.committed_at is not None:
                    commit_times.append(submitted.committed_at)
    committed = sum(
        max(group.committed_counts().values(), default=0) for group in groups
    )
    duration = (max(commit_times) - min(submit_times)) if commit_times else 0.0
    latency = registry.latency_samples("client_commit_latency", **labels)
    return dict(
        committed=committed,
        throughput_tps=committed / duration if duration > 0 else 0.0,
        mean_client_latency=mean(latency),
        p90_client_latency=percentile(latency, 0.90),
        mean_ordering_delay=mean(registry.latency_samples("ordering_delay", **labels)),
        reorder_aborts=registry.counter_total("reorder_aborts", **labels),
        queries_completed=registry.counter_total("queries_completed", **labels),
        duration=duration,
    )


def summarize_run(cluster: Any, verification: ClusterVerificationReport) -> RunSummary:
    """Reduce a finished run and its verification report to a :class:`RunSummary`."""
    registry = build_registry(cluster)
    groups = cluster.replica_groups()
    per_group = verification.one_copy
    return RunSummary(
        **_load(list(groups.values()), registry),
        mismatch_fraction=mean(list(divergence_by_site(cluster).values())),
        mean_query_latency=mean(registry.latency_samples("query_latency")),
        groups={
            group_id: LoadSummary(**_load([group], registry, shard=group_id))
            for group_id, group in groups.items()
        },
        one_copy_ok=all(r.ok for r in per_group.per_shard_one_copy.values()),
        broadcast_ok=all(r.ok for r in per_group.per_shard_broadcast.values()),
        queries_consistent=verification.queries.ok,
        verification=verification,
    )


def finish_run(cluster: Any, *, settle_time: Optional[float] = None) -> RunSummary:
    """Run to idle → scheduler invariants → verify everything → summarise.

    ``settle_time`` is required by suspicion-driven runs: periodic heartbeat
    detectors never let the kernel go idle, so the run first advances to
    ``settle_time`` (chosen past the last fault plus detector re-trust), then
    stops the detectors and drains the remaining events to idle.
    """
    if settle_time is not None:
        cluster.run(until=settle_time)
        cluster.stop_failure_detectors()
    cluster.run_until_idle()
    cluster.check_scheduler_invariants()
    return summarize_run(cluster, check_cluster(cluster))
