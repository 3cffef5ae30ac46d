"""A metrics registry unifying per-site collectors into one namespace.

The replica managers each own a :class:`~repro.metrics.collector.MetricsCollector`;
flat clusters and sharded clusters used to aggregate them with ad-hoc loops
in several places.  :class:`MetricsRegistry` replaces those loops: every
collector registers under a set of labels (``shard=S1, site=S1:N1``), and
instruments are read back by name with optional label filters — the same
query works on a flat cluster (labelled ``shard=global``) and on a sharded
one, so both report one consistent metric namespace.

On top of the raw instruments, :func:`derive_metrics` computes the numbers
the paper cares about:

* ``opt_to_divergence_rate`` — fraction of messages whose optimistic
  delivery position differs from the definitive one (the event that forces
  CC8 reordering work; the paper's claim is that it is rare on a LAN);
* per-phase latency breakdown (p50/p95/p99) of the client path;
* abort counters grouped by cause (reordering, crash loss, recovery
  invalidation);
* class-queue depth high-water marks.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple

from ..broadcast.spontaneous import tentative_vs_definitive_mismatch
from ..metrics.collector import MetricsCollector
from ..metrics.stats import Summary, mean, summarize
from ..types import SiteId

#: Counter names grouped under one abort cause (derived metric).
ABORT_CAUSES: Dict[str, Tuple[str, ...]] = {
    "reordering": ("reorder_aborts",),
    "crash_loss": ("transactions_lost_in_crash", "queries_aborted_by_crash"),
    "recovery_invalidation": ("transactions_discarded",),
}

#: Counter names grouped under one admission shed cause (derived metric).
#: Populated by the open-loop offer paths (see :mod:`repro.core.admission`).
SHED_CAUSES: Dict[str, Tuple[str, ...]] = {
    "overload": ("admission_shed_overload",),
    "site_down": ("admission_shed_site_down",),
}

#: Latency instruments reported in the per-phase breakdown, in client order.
PHASE_LATENCIES: Tuple[str, ...] = (
    "client_commit_latency",
    "ordering_delay",
    "opt_deliver_to_commit",
    "to_deliver_to_commit",
    "query_latency",
)


class _Entry(NamedTuple):
    labels: Dict[str, str]
    collector: MetricsCollector


class MetricsRegistry:
    """Named per-site/per-shard instruments behind one query surface."""

    def __init__(self) -> None:
        self._entries: List[_Entry] = []

    # ---------------------------------------------------------- registration
    def register(self, collector: MetricsCollector, **labels: str) -> None:
        """Register one collector under ``labels`` (e.g. ``shard=, site=``)."""
        self._entries.append(_Entry(labels={k: str(v) for k, v in labels.items()}, collector=collector))

    def label_values(self, key: str) -> List[str]:
        """Distinct values of one label key, sorted (e.g. all shard ids)."""
        return sorted({entry.labels[key] for entry in self._entries if key in entry.labels})

    def _matching(self, labels: Mapping[str, str]) -> Iterable[_Entry]:
        wanted = {k: str(v) for k, v in labels.items()}
        for entry in self._entries:
            if all(entry.labels.get(key) == value for key, value in wanted.items()):
                yield entry

    # -------------------------------------------------------------- counters
    def counter_total(self, name: str, **labels: str) -> int:
        """Sum of the counter ``name`` across matching collectors."""
        return sum(entry.collector.count(name) for entry in self._matching(labels))

    # ------------------------------------------------------------- latencies
    def latency_samples(self, name: str, **labels: str) -> List[float]:
        """All samples of the latency instrument ``name``, merged."""
        samples: List[float] = []
        for entry in self._matching(labels):
            samples.extend(entry.collector.latency(name).samples)
        return samples

    def latency_breakdown(self, name: str, **labels: str) -> Summary:
        """p50/p95/p99 summary of one latency instrument across collectors."""
        return summarize(self.latency_samples(name, **labels))

    # ---------------------------------------------------------------- gauges
    def gauge_high_water(self, name: str, **labels: str) -> float:
        """Largest high-water mark of the gauge ``name`` across collectors."""
        marks = [entry.collector.gauge_max(name) for entry in self._matching(labels)]
        return max(marks) if marks else 0.0

    # ----------------------------------------------------------------- export
    def snapshot(self) -> Dict[str, object]:
        """One flat namespace: ``shard=S1/site=S1:N1/counter/commits`` -> value.

        Latency instruments export their :class:`Summary`; the namespace is
        identical for flat (``shard=global``) and sharded clusters.
        """
        flat: Dict[str, object] = {}
        for entry in self._entries:
            prefix = "/".join(
                f"{key}={value}" for key, value in sorted(entry.labels.items())
            )
            snapshot = entry.collector.snapshot()
            for name, value in snapshot["counters"].items():
                flat[f"{prefix}/counter/{name}"] = value
            for name, summary in snapshot["latencies"].items():
                flat[f"{prefix}/latency/{name}"] = summary
            for name, gauge in snapshot.get("gauges", {}).items():
                flat[f"{prefix}/gauge/{name}"] = gauge
        return dict(sorted(flat.items()))

    def __len__(self) -> int:
        return len(self._entries)


# ---------------------------------------------------------------------------
# Registry construction from cluster facades
# ---------------------------------------------------------------------------

#: Shard label applied to flat (unsharded) clusters so the namespace is
#: identical in both deployment shapes.
FLAT_SHARD_LABEL = "global"


def build_registry(cluster: Any) -> MetricsRegistry:
    """Build a registry covering every replica of a cluster facade.

    Every facade is a dict of replica groups (``cluster.replica_groups()``):
    a flat :class:`~repro.core.cluster.ReplicatedDatabase` is the one group
    labelled ``shard=global``, a
    :class:`~repro.sharding.cluster.ShardedCluster` labels each site with
    its owning shard.
    """
    registry = MetricsRegistry()
    for group_id, group in cluster.replica_groups().items():
        for site_id, replica in group.replicas.items():
            registry.register(replica.metrics, shard=group_id, site=site_id)
    return registry


# ---------------------------------------------------------------------------
# Derived metrics
# ---------------------------------------------------------------------------


class DerivedMetrics(NamedTuple):
    """The paper-level numbers computed from the raw instruments."""

    #: Mean fraction of messages opt-delivered at a different position than
    #: their definitive one, across sites (0.0 = spontaneous order held).
    opt_to_divergence_rate: float
    divergence_by_site: Dict[SiteId, float]
    #: p50/p95/p99 summaries of each client-path phase (see PHASE_LATENCIES).
    phase_breakdown: Dict[str, Summary]
    aborts_by_cause: Dict[str, int]
    max_class_queue_depth: float
    commits: int
    #: Admission-control outcomes of the open-loop offer path (all zero /
    #: empty when the cluster has no admission config or ran closed-loop).
    sheds_by_cause: Dict[str, int]
    admitted: int
    #: Always 0: admission sheds and never defers.  Kept for the benchmark's
    #: ``core.deferred`` column until that column is retired.
    deferred: int
    max_admission_queue_depth: float


def divergence_by_site(cluster: Any) -> Dict[SiteId, float]:
    """Opt/TO mismatch fraction of every site, groups in facade order."""
    divergence: Dict[SiteId, float] = {}
    for group in cluster.replica_groups().values():
        for site_id in group.site_ids():
            endpoint = group.broadcast_endpoint(site_id)
            divergence[site_id] = tentative_vs_definitive_mismatch(
                endpoint.opt_delivery_log, endpoint.to_delivery_log
            )
    return divergence


def derive_metrics(cluster: Any, registry: Optional[MetricsRegistry] = None) -> DerivedMetrics:
    """Compute :class:`DerivedMetrics` for a flat or sharded cluster."""
    if registry is None:
        registry = build_registry(cluster)
    divergence = dict(sorted(divergence_by_site(cluster).items()))
    return DerivedMetrics(
        opt_to_divergence_rate=mean(list(divergence.values())),
        divergence_by_site=divergence,
        phase_breakdown={
            name: registry.latency_breakdown(name) for name in PHASE_LATENCIES
        },
        aborts_by_cause={
            cause: sum(registry.counter_total(counter) for counter in counters)
            for cause, counters in ABORT_CAUSES.items()
        },
        max_class_queue_depth=registry.gauge_high_water("class_queue_depth"),
        commits=registry.counter_total("commits"),
        sheds_by_cause={
            cause: sum(registry.counter_total(counter) for counter in counters)
            for cause, counters in SHED_CAUSES.items()
        },
        admitted=registry.counter_total("admission_admitted"),
        deferred=0,
        max_admission_queue_depth=registry.gauge_high_water("admission_queue_depth"),
    )
