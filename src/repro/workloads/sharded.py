"""Sharded workload: per-shard update load plus cross-shard queries.

The scale-out experiments hold the *per-shard* load fixed while growing the
number of shards, so a :class:`ShardedWorkloadSpec` describes the load in
per-shard terms (classes per shard, update transactions per shard) and adds
a stream of multi-class queries that may span shard boundaries.  The
generator drives the :class:`~repro.sharding.router.TransactionRouter`
rather than individual sites: routing updates to their owning shard and
fanning out queries is exactly what the subsystem under test does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import WorkloadError
from .generator import GeneratedOperation, WorkloadPlan
from .procedures import READ_CLASSES_QUERY, UPDATE_PROCEDURE
from .specs import WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from ..sharding.cluster import ShardedCluster
    from ..sharding.shardmap import ShardMap


@dataclass
class ShardedWorkloadSpec:
    """Description of the client load applied to a sharded cluster.

    Attributes
    ----------
    shard_count:
        Number of shards (must match the cluster's :class:`ShardingConfig`).
    classes_per_shard:
        Conflict classes owned by each shard; total classes =
        ``shard_count * classes_per_shard``.
    objects_per_class:
        Objects in each class's partition.
    updates_per_shard:
        Update transactions routed to each shard — the fixed per-shard load
        of the scale-out benchmarks.
    update_interval:
        Mean think time between two consecutive updates *of one shard's
        stream* (exponential), so each shard sees the same submission rate
        regardless of how many shards exist.
    queries:
        Total number of multi-class queries fanned out through the router.
    query_interval:
        Mean think time between two consecutive queries.
    query_span:
        Conflict classes read by each query; a span larger than
        ``classes_per_shard`` necessarily crosses shard boundaries.
    class_skew:
        Zipf skew of the class choice within a shard (0 = uniform).
    operations_per_update / update_duration / query_duration / initial_value:
        As in :class:`~repro.workloads.specs.WorkloadSpec`.
    """

    shard_count: int = 2
    classes_per_shard: int = 2
    objects_per_class: int = 10
    updates_per_shard: int = 40
    update_interval: float = 0.004
    queries: int = 0
    query_interval: float = 0.010
    query_span: int = 2
    class_skew: float = 0.0
    operations_per_update: int = 2
    update_duration: float = 0.002
    query_duration: float = 0.002
    initial_value: int = 100

    def __post_init__(self) -> None:
        if self.shard_count < 1:
            raise WorkloadError("shard_count must be at least 1")
        if self.classes_per_shard < 1:
            raise WorkloadError("classes_per_shard must be at least 1")
        if self.objects_per_class < 1:
            raise WorkloadError("objects_per_class must be at least 1")
        if self.updates_per_shard < 0 or self.queries < 0:
            raise WorkloadError("operation counts cannot be negative")
        if self.update_interval < 0.0 or self.query_interval < 0.0:
            raise WorkloadError("intervals cannot be negative")
        if self.query_span < 1:
            raise WorkloadError("query_span must be at least 1")
        if self.operations_per_update < 1:
            raise WorkloadError("operations_per_update must be at least 1")
        if not self.class_skew >= 0.0:
            raise WorkloadError(f"class_skew must be >= 0, not {self.class_skew!r}")

    @property
    def class_count(self) -> int:
        """Total number of conflict classes across all shards."""
        return self.shard_count * self.classes_per_shard

    @property
    def effective_query_span(self) -> int:
        """Query span clamped to the total number of classes."""
        return min(self.query_span, self.class_count)

    def total_updates(self) -> int:
        """Total update transactions across all shards."""
        return self.updates_per_shard * self.shard_count

    def base_spec(self) -> WorkloadSpec:
        """The flat :class:`WorkloadSpec` describing the same database.

        Used to build the shared stored procedures, conflict map and initial
        data with the standard-workload builders — the sharded layout only
        changes who sequences each class, not the database schema.
        """
        return WorkloadSpec(
            class_count=self.class_count,
            objects_per_class=self.objects_per_class,
            update_interval=self.update_interval,
            query_interval=self.query_interval,
            query_span=self.effective_query_span,
            class_skew=self.class_skew,
            operations_per_update=self.operations_per_update,
            update_duration=self.update_duration,
            query_duration=self.query_duration,
            initial_value=self.initial_value,
        )


def build_shard_map(spec: ShardedWorkloadSpec, shard_ids=None) -> "ShardMap":
    """Build the contiguous-block shard map of the sharded workload.

    Shard ``k`` owns classes ``C{k*classes_per_shard} ..
    C{(k+1)*classes_per_shard - 1}``.
    """
    from ..sharding.shardmap import ShardMap
    from .specs import partition_class_id

    if shard_ids is None:
        shard_ids = [f"S{index + 1}" for index in range(spec.shard_count)]
    if len(shard_ids) != spec.shard_count:
        raise WorkloadError(
            f"expected {spec.shard_count} shard ids, got {len(shard_ids)}"
        )
    class_ids = [partition_class_id(index) for index in range(spec.class_count)]
    return ShardMap.contiguous(class_ids, shard_ids)


class ShardedWorkloadGenerator:
    """Schedules the sharded workload through a cluster's router."""

    def __init__(self, spec: ShardedWorkloadSpec, *, seed_salt: str = "sharded-workload") -> None:
        self.spec = spec
        self.seed_salt = seed_salt

    def apply(self, cluster: "ShardedCluster", *, start_time: float = 0.0) -> WorkloadPlan:
        """Schedule the whole workload on ``cluster`` and return the plan.

        Per shard, one update stream with its own random stream (so the
        per-shard arrival process is identical whether the cluster has 1 or
        8 shards — only which shards exist changes), plus one global query
        stream spanning classes (and hence shards) uniformly.
        """
        spec = self.spec
        plan = WorkloadPlan()
        shard_ids = cluster.config.shard_ids()
        if len(shard_ids) != spec.shard_count:
            raise WorkloadError(
                f"spec describes {spec.shard_count} shards but the cluster has "
                f"{len(shard_ids)}"
            )
        for shard_index, shard_id in enumerate(shard_ids):
            stream = cluster.kernel.random.stream(f"{self.seed_salt}.updates.{shard_id}")
            shard_sites = cluster.shard(shard_id).site_ids()
            submit_at = start_time
            for _ in range(spec.updates_per_shard):
                submit_at += stream.exponential(spec.update_interval)
                local_class = stream.zipf_index(spec.classes_per_shard, spec.class_skew)
                class_index = shard_index * spec.classes_per_shard + local_class
                object_count = min(spec.operations_per_update, spec.objects_per_class)
                object_indexes = stream.sample(range(spec.objects_per_class), object_count)
                site_index = stream.randint(0, len(shard_sites) - 1)
                plan.operations.append(
                    GeneratedOperation(
                        site_id=shard_sites[site_index],
                        procedure_name=UPDATE_PROCEDURE,
                        parameters={
                            "class_index": class_index,
                            "object_indexes": sorted(object_indexes),
                            "amount": 1,
                            "site_index": site_index,
                        },
                        scheduled_at=submit_at,
                        is_query=False,
                    )
                )

        query_stream = cluster.kernel.random.stream(f"{self.seed_salt}.queries")
        submit_at = start_time
        for _ in range(spec.queries):
            submit_at += query_stream.exponential(spec.query_interval)
            span = spec.effective_query_span
            first_class = query_stream.randint(0, spec.class_count - 1)
            class_indexes = sorted(
                (first_class + offset) % spec.class_count for offset in range(span)
            )
            plan.operations.append(
                GeneratedOperation(
                    site_id="router",
                    procedure_name=READ_CLASSES_QUERY,
                    parameters={"class_indexes": class_indexes},
                    scheduled_at=submit_at,
                    is_query=True,
                )
            )

        plan.operations.sort(key=lambda operation: operation.scheduled_at)
        for operation in plan.operations:
            cluster.kernel.schedule_at(
                operation.scheduled_at,
                self._make_submit_callback(cluster, operation),
                label=f"sharded-workload:{operation.procedure_name}",
            )
        return plan

    def _make_submit_callback(self, cluster: "ShardedCluster", operation: GeneratedOperation):
        if operation.is_query:
            return lambda: cluster.submit_query(
                operation.procedure_name, dict(operation.parameters)
            )
        parameters = dict(operation.parameters)
        site_index = parameters.pop("site_index", None)
        return lambda: cluster.submit_update(
            operation.procedure_name, parameters, site_index=site_index
        )
