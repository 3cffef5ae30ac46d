"""Open-loop Poisson arrivals and the open-loop traffic engine.

Every generator in :mod:`repro.workloads.generator` is *closed-loop*: each
site's stream draws a think time after the previous submission, so the
offered load implicitly tracks what the system completes.  Production
traffic does not wait — requests arrive whenever users make them — so this
module provides *open-loop* traffic: a seed-driven arrival process lays out
submission times over a horizon, and the engine schedules one offer per
arrival on the simulation kernel regardless of completions.  Offered load
past the saturation knee therefore builds real backlog, which is exactly
the regime admission control (:mod:`repro.core.admission`) exists for.

Arrivals
--------
:class:`PoissonArrivals` is a homogeneous Poisson stream (exponential gaps),
a pure function of a :class:`~repro.simulation.randomness.RandomStream`, so
two clusters with equal seeds receive identical arrival schedules in any
``PYTHONHASHSEED`` universe.

The engine
----------
:class:`OpenLoopTrafficEngine` turns an :class:`OpenLoopSpec` into a
deterministic :class:`OpenLoopPlan` and schedules its operations through a
cluster facade's admission-aware entry points (``offer_update`` /
``offer_query`` on a flat :class:`~repro.core.cluster.ReplicatedDatabase`,
``offer_update`` + routed queries on a
:class:`~repro.sharding.cluster.ShardedCluster`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple

from ..errors import WorkloadError
from ..simulation.randomness import RandomStream
from .procedures import READ_CLASSES_QUERY, UPDATE_PROCEDURE
from .specs import WorkloadSpec


def _require_positive(name: str, value: float) -> None:
    if not value > 0.0:
        raise WorkloadError(f"{name} must be positive (got {value!r})")


class _Rate(NamedTuple):
    rate: float


class PoissonArrivals(_Rate):
    """Homogeneous Poisson arrivals at ``rate`` per second."""

    __slots__ = ()

    def __new__(cls, rate: float) -> "PoissonArrivals":
        _require_positive("rate", rate)
        return super().__new__(cls, rate)

    def arrival_times(self, stream: RandomStream, horizon: float) -> List[float]:
        times: List[float] = []
        at = 0.0
        while True:
            at += stream.exponential(1.0 / self.rate)
            if at >= horizon:
                return times
            times.append(at)


@dataclass
class OpenLoopSpec:
    """Description of an open-loop client load.

    ``arrivals`` and ``horizon`` replace the closed-loop per-site counts and
    think times of :class:`~repro.workloads.specs.WorkloadSpec`: one
    aggregate arrival process drives the whole cluster, each arrival picks a
    preferred site from a seeded stream, and ``query_fraction`` of arrivals
    become multi-class read-only queries instead of updates.  The database
    schema fields (``class_count``, ``objects_per_class``, durations...)
    mirror the closed-loop spec so the standard registry/conflict-map/
    initial-data builders apply unchanged (see :meth:`base_spec`).
    """

    arrivals: PoissonArrivals
    horizon: float
    class_count: int = 6
    objects_per_class: int = 20
    query_fraction: float = 0.0
    query_span: int = 2
    class_skew: float = 0.0
    operations_per_update: int = 2
    update_duration: float = 0.002
    query_duration: float = 0.002
    initial_value: int = 100

    def __post_init__(self) -> None:
        _require_positive("horizon", self.horizon)
        if self.class_count < 1:
            raise WorkloadError("class_count must be at least 1")
        if self.objects_per_class < 1:
            raise WorkloadError("objects_per_class must be at least 1")
        if not 0.0 <= self.query_fraction <= 1.0:
            raise WorkloadError(
                f"query_fraction must lie in [0, 1] (got {self.query_fraction!r})"
            )
        if self.query_span < 1:
            raise WorkloadError("query_span must be at least 1")
        if not self.class_skew >= 0.0:
            raise WorkloadError(f"class_skew must be >= 0, not {self.class_skew!r}")
        if self.operations_per_update < 1:
            raise WorkloadError("operations_per_update must be at least 1")

    @property
    def effective_query_span(self) -> int:
        """Query span clamped to the number of classes."""
        return min(self.query_span, self.class_count)

    def base_spec(self) -> WorkloadSpec:
        """The closed-loop spec describing the same database schema.

        Used with the standard builders (``build_partitioned_registry``,
        ``build_conflict_map``, ``build_initial_data``): open-loop traffic
        changes *when* clients submit, not what the database looks like.
        """
        return WorkloadSpec(
            class_count=self.class_count,
            objects_per_class=self.objects_per_class,
            query_span=self.effective_query_span,
            class_skew=self.class_skew,
            operations_per_update=self.operations_per_update,
            update_duration=self.update_duration,
            query_duration=self.query_duration,
            initial_value=self.initial_value,
        )


class OpenLoopOperation(NamedTuple):
    """One planned open-loop offer (kept for reproducibility checks)."""

    procedure_name: str
    parameters: Dict[str, Any]
    scheduled_at: float
    site_index: int
    is_query: bool


class OpenLoopPlan:
    """The full offer schedule plus live admission outcome counters.

    The operation list is fixed once built; the counters fill in as the
    simulation executes the offers (an offer returning ``None`` was shed or
    deferred by admission control — a deferred submission that is admitted
    on a later retry is counted by the site's metrics, not here).
    """

    __slots__ = (
        "operations",
        "admitted_updates",
        "admitted_queries",
        "refused_updates",
        "refused_queries",
    )

    def __init__(self) -> None:
        self.operations: List[OpenLoopOperation] = []
        self.admitted_updates = self.admitted_queries = 0
        self.refused_updates = self.refused_queries = 0

    @property
    def update_count(self) -> int:
        """Number of planned update offers."""
        return sum(1 for operation in self.operations if not operation.is_query)

    @property
    def query_count(self) -> int:
        """Number of planned query offers."""
        return sum(1 for operation in self.operations if operation.is_query)


class OpenLoopTrafficEngine:
    """Schedules an open-loop offer stream against a cluster facade.

    Works with both deployment shapes: a flat
    :class:`~repro.core.cluster.ReplicatedDatabase` receives offers through
    ``offer_update`` / ``offer_query`` (seeded preferred site, client
    failover, admission control), and a
    :class:`~repro.sharding.cluster.ShardedCluster` receives updates through
    its shard-resolving ``offer_update`` and queries through the fan-out
    router.  The plan is derived from the cluster's master seed and this
    engine's ``seed_salt``, so equal seeds yield identical offer schedules.
    """

    def __init__(self, spec: OpenLoopSpec, *, seed_salt: str = "open-loop") -> None:
        self.spec = spec
        self.seed_salt = seed_salt

    # ------------------------------------------------------------------- api
    def build_plan(self, cluster: Any, *, start_time: float = 0.0) -> OpenLoopPlan:
        """Derive the full offer schedule without scheduling anything."""
        spec = self.spec
        arrival_stream = cluster.kernel.random.stream(f"{self.seed_salt}.arrivals")
        param_stream = cluster.kernel.random.stream(f"{self.seed_salt}.params")
        site_stream = cluster.kernel.random.stream(f"{self.seed_salt}.sites")
        plan = OpenLoopPlan()
        for offset in spec.arrivals.arrival_times(arrival_stream, spec.horizon):
            site_index = site_stream.randint(0, 2**16 - 1)
            is_query = spec.query_fraction > 0.0 and param_stream.chance(
                spec.query_fraction
            )
            first_class = param_stream.zipf_index(spec.class_count, spec.class_skew)
            if is_query:
                span = spec.effective_query_span
                class_indexes = sorted(
                    (first_class + step) % spec.class_count for step in range(span)
                )
                parameters: Dict[str, Any] = {"class_indexes": class_indexes}
                procedure = READ_CLASSES_QUERY
            else:
                object_count = min(spec.operations_per_update, spec.objects_per_class)
                object_indexes = param_stream.sample(
                    range(spec.objects_per_class), object_count
                )
                parameters = {
                    "class_index": first_class,
                    "object_indexes": sorted(object_indexes),
                    "amount": 1,
                }
                procedure = UPDATE_PROCEDURE
            plan.operations.append(
                OpenLoopOperation(
                    procedure_name=procedure,
                    parameters=parameters,
                    scheduled_at=start_time + offset,
                    site_index=site_index,
                    is_query=is_query,
                )
            )
        return plan

    def apply(self, cluster: Any, *, start_time: float = 0.0) -> OpenLoopPlan:
        """Build the plan and schedule every offer on the cluster's kernel."""
        plan = self.build_plan(cluster, start_time=start_time)
        now = cluster.kernel.now()
        sharded = hasattr(cluster, "shards")
        for operation in plan.operations:
            if operation.scheduled_at < now:
                raise WorkloadError(
                    f"offer scheduled at {operation.scheduled_at} lies in the past"
                )
            cluster.kernel.schedule_at(
                operation.scheduled_at,
                self._make_offer(cluster, plan, operation, sharded),
                label=f"open-loop:{operation.procedure_name}",
            )
        return plan

    # -------------------------------------------------------------- internal
    def _make_offer(
        self,
        cluster: Any,
        plan: OpenLoopPlan,
        operation: OpenLoopOperation,
        sharded: bool,
    ) -> Callable[[], None]:
        def fire() -> None:
            if operation.is_query:
                if sharded:
                    # The router fans the query out and defers dark-shard
                    # sub-queries itself; the offer is always accepted.
                    cluster.submit_query(
                        operation.procedure_name, dict(operation.parameters)
                    )
                    plan.admitted_queries += 1
                    return
                execution = cluster.offer_query(
                    operation.procedure_name,
                    dict(operation.parameters),
                    site_index=operation.site_index,
                )
                if execution is None:
                    plan.refused_queries += 1
                else:
                    plan.admitted_queries += 1
                return
            admitted = cluster.offer_update(
                operation.procedure_name,
                dict(operation.parameters),
                site_index=operation.site_index,
            )
            if admitted is None:
                plan.refused_updates += 1
            else:
                plan.admitted_updates += 1

        return fire
