"""Workload generator: schedules client submissions against a cluster.

The plan is a pure function of the cluster's seed, so every configuration
of the one cluster facade — OTP, conservative or lazy — can receive exactly
the same load (same submission times, same parameters) in a comparison.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, NamedTuple

from ..errors import WorkloadError
from ..simulation.randomness import RandomStream
from ..types import SiteId
from .procedures import READ_CLASSES_QUERY, UPDATE_PROCEDURE
from .specs import OPERATIONS_PER_UPDATE, WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from ..core.cluster import ReplicatedDatabase


class GeneratedOperation(NamedTuple):
    """One scheduled client operation (kept for reproducibility checks)."""

    site_id: SiteId
    procedure_name: str
    parameters: Dict[str, Any]
    scheduled_at: float
    is_query: bool


class WorkloadPlan:
    """The full set of operations the generator scheduled."""

    __slots__ = ("operations",)

    def __init__(self) -> None:
        self.operations: List[GeneratedOperation] = []

    @property
    def update_count(self) -> int:
        """Number of update transactions in the plan."""
        return sum(1 for operation in self.operations if not operation.is_query)

    @property
    def query_count(self) -> int:
        """Number of queries in the plan."""
        return sum(1 for operation in self.operations if operation.is_query)

    def last_submission_time(self) -> float:
        """Virtual time of the last scheduled submission."""
        if not self.operations:
            return 0.0
        return max(operation.scheduled_at for operation in self.operations)


class WorkloadGenerator:
    """Generates and schedules the standard partitioned workload."""

    def __init__(self, spec: WorkloadSpec) -> None:
        self.spec = spec

    # ------------------------------------------------------------------- api
    def apply(self, cluster: "ReplicatedDatabase") -> WorkloadPlan:
        """Schedule the whole workload on ``cluster`` and return the plan.

        The plan is derived deterministically from the cluster's master seed
        (the ``workload.*`` streams); two clusters built with the same seed
        receive an identical operation stream.
        """
        plan = self._build_plan(cluster)
        now = cluster.kernel.now()
        for operation in plan.operations:
            if operation.scheduled_at < now:
                raise WorkloadError(
                    f"operation scheduled at {operation.scheduled_at} lies in the past"
                )
            cluster.kernel.schedule_at(
                operation.scheduled_at,
                self._make_submit_callback(cluster, operation),
                label=f"workload:{operation.procedure_name}@{operation.site_id}",
            )
        return plan

    # -------------------------------------------------------------- internal
    def _make_submit_callback(self, cluster: "ReplicatedDatabase", operation: GeneratedOperation):
        if operation.is_query:
            return lambda: cluster.submit_query(
                operation.site_id, operation.procedure_name, dict(operation.parameters)
            )
        return lambda: cluster.submit(
            operation.site_id, operation.procedure_name, dict(operation.parameters)
        )

    def _build_plan(self, cluster: "ReplicatedDatabase") -> WorkloadPlan:
        plan = WorkloadPlan()
        for site_id in cluster.site_ids():
            update_stream = cluster.kernel.random.stream(f"workload.updates.{site_id}")
            query_stream = cluster.kernel.random.stream(f"workload.queries.{site_id}")
            plan.operations.extend(self._site_updates(site_id, update_stream))
            plan.operations.extend(self._site_queries(site_id, query_stream))
        plan.operations.sort(key=lambda operation: operation.scheduled_at)
        return plan

    def _site_updates(self, site_id: SiteId, stream: RandomStream) -> List[GeneratedOperation]:
        spec = self.spec
        operations: List[GeneratedOperation] = []
        submit_at = 0.0
        for _ in range(spec.updates_per_site):
            submit_at += stream.exponential(spec.update_interval)
            class_index = stream.zipf_index(spec.class_count, spec.class_skew)
            object_count = min(OPERATIONS_PER_UPDATE, spec.objects_per_class)
            object_indexes = stream.sample(range(spec.objects_per_class), object_count)
            operations.append(
                GeneratedOperation(
                    site_id=site_id,
                    procedure_name=UPDATE_PROCEDURE,
                    parameters={
                        "class_index": class_index,
                        "object_indexes": sorted(object_indexes),
                        "amount": 1,
                    },
                    scheduled_at=submit_at,
                    is_query=False,
                )
            )
        return operations

    def _site_queries(self, site_id: SiteId, stream: RandomStream) -> List[GeneratedOperation]:
        spec = self.spec
        operations: List[GeneratedOperation] = []
        submit_at = 0.0
        for _ in range(spec.queries_per_site):
            submit_at += stream.exponential(spec.query_interval)
            span = spec.effective_query_span
            first_class = stream.zipf_index(spec.class_count, spec.class_skew)
            class_indexes = sorted(
                (first_class + offset) % spec.class_count for offset in range(span)
            )
            operations.append(
                GeneratedOperation(
                    site_id=site_id,
                    procedure_name=READ_CLASSES_QUERY,
                    parameters={"class_indexes": class_indexes},
                    scheduled_at=submit_at,
                    is_query=True,
                )
            )
        return operations
