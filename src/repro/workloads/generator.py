"""Workload generator: schedules client submissions against a cluster.

The plan is a pure function of the cluster's seed, so every configuration
of the one cluster facade — OTP, conservative or lazy — can receive exactly
the same load (same submission times, same parameters) in a comparison.
A plan keeps its operations as columns, and :func:`pump` keeps one of them
pending on the kernel at a time.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Any, Callable, Dict, List, NamedTuple, Sequence, Tuple

from ..errors import WorkloadError
from ..types import SiteId
from .procedures import READ_CLASSES_QUERY, UPDATE_PROCEDURE
from .specs import OPERATIONS_PER_UPDATE, WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from ..core.cluster import ReplicatedDatabase
    from ..simulation.kernel import SimulationKernel


#: One operation as :func:`pump` submits it: ``(site, procedure,
#: parameters, time, is_query)``.
OperationRow = Tuple[Any, str, Dict[str, Any], float, bool]


class GeneratedOperation(NamedTuple):
    """One scheduled client operation (kept for reproducibility checks)."""

    site_id: SiteId
    procedure_name: str
    parameters: Dict[str, Any]
    scheduled_at: float
    is_query: bool


class WorkloadPlan:
    """The operations a generator scheduled, as columns in submission order.

    Operation ``i`` is submitted at ``times[i]`` by ``site_ids[sites[i]]``
    and names class ``classes[i]``: an update's class, or the first of a
    query's ``span`` consecutive classes.  An update's object indexes are
    ``objects[i * stride:(i + 1) * stride]``; a query's stay 0.
    :attr:`operations` builds its records from the rows :func:`pump`
    submits.
    """

    #: The record :attr:`operations` builds from each row.
    record_type: Any = GeneratedOperation

    __slots__ = (
        "times",
        "sites",
        "classes",
        "is_query",
        "objects",
        "site_ids",
        "class_count",
        "span",
        "stride",
        "update_count",
        "query_count",
    )

    def __init__(self, spec: Any, site_ids: Sequence[Any]) -> None:
        self.times = array("d")
        self.sites = array("i")
        self.classes = array("i")
        self.is_query = array("b")
        self.objects = array("i")
        self.site_ids = site_ids
        self.class_count: int = spec.class_count
        self.span: int = spec.effective_query_span
        self.stride = min(OPERATIONS_PER_UPDATE, spec.objects_per_class)
        self.update_count = self.query_count = 0

    @property
    def operations(self) -> List[Any]:
        """Every operation's record, built from the columns."""
        return [self.record_type(*self._row(index)) for index in range(len(self.times))]

    def last_submission_time(self) -> float:
        """Virtual time of the last scheduled submission."""
        return max(self.times, default=0.0)

    def _row(self, index: int) -> OperationRow:
        site, first, at = self.site_ids[self.sites[index]], self.classes[index], self.times[index]
        if self.is_query[index]:
            window = sorted((first + step) % self.class_count for step in range(self.span))
            return site, READ_CLASSES_QUERY, {"class_indexes": window}, at, True
        objects = self.objects[index * self.stride:(index + 1) * self.stride].tolist()
        parameters = {"class_index": first, "object_indexes": objects, "amount": 1}
        return site, UPDATE_PROCEDURE, parameters, at, False

    def _add(self, at: float, site: int, class_index: int, objects: Sequence[int]) -> None:
        """Append one operation; ``objects`` is empty for a query."""
        self.times.append(at)
        self.sites.append(site)
        self.classes.append(class_index)
        self.is_query.append(not objects)
        self.objects.extend(objects or (0,) * self.stride)
        if objects:
            self.update_count += 1
        else:
            self.query_count += 1

    def _sort(self) -> None:
        """Order the operations by time; equal times keep the order they were added in."""
        order = sorted(range(len(self.times)), key=self.times.__getitem__)
        stride = self.stride
        objects = self.objects
        self.objects = array("i", [objects[i * stride + k] for i in order for k in range(stride)])
        for name in ("times", "sites", "classes", "is_query"):
            column = getattr(self, name)
            setattr(self, name, array(column.typecode, [column[i] for i in order]))


def pump(
    kernel: "SimulationKernel",
    plan: WorkloadPlan,
    label: str,
    submit: Callable[[OperationRow], None],
) -> None:
    """Submit ``plan``'s operations in order, one pending event at a time.

    Every time is checked first.  Each submission event then schedules its
    successor before it submits, so the successor's sequence number is below
    anything the submission schedules, and builds its :data:`OperationRow`
    from the columns only when it fires.
    """
    times = plan.times
    if times and min(times) < kernel.now():
        raise WorkloadError(f"operation scheduled at {min(times)} lies in the past")
    index = -1

    def fire() -> None:
        nonlocal index
        index += 1
        if index + 1 < len(times):
            kernel.schedule_at(times[index + 1], fire, label=label)
        submit(plan._row(index))

    if times:
        kernel.schedule_at(times[0], fire, label=label)


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

        def submit(row: OperationRow) -> None:
            site, procedure, parameters, _, is_query = row
            if is_query:
                cluster.submit_query(site, procedure, parameters)
            else:
                cluster.submit(site, procedure, parameters)

        pump(cluster.kernel, plan, "workload", submit)
        return plan

    # -------------------------------------------------------------- internal
    def _build_plan(self, cluster: "ReplicatedDatabase") -> WorkloadPlan:
        spec = self.spec
        site_ids = cluster.site_ids()
        plan = WorkloadPlan(spec, site_ids)
        for site, site_id in enumerate(site_ids):
            updates = cluster.kernel.random.stream(f"workload.updates.{site_id}")
            queries = cluster.kernel.random.stream(f"workload.queries.{site_id}")
            submit_at = 0.0
            for _ in range(spec.updates_per_site):
                submit_at += updates.exponential(spec.update_interval)
                class_index = updates.zipf_index(spec.class_count, spec.class_skew)
                objects = updates.sample(range(spec.objects_per_class), plan.stride)
                plan._add(submit_at, site, class_index, sorted(objects))
            submit_at = 0.0
            for _ in range(spec.queries_per_site):
                submit_at += queries.exponential(spec.query_interval)
                class_index = queries.zipf_index(spec.class_count, spec.class_skew)
                plan._add(submit_at, site, class_index, ())
        plan._sort()
        return plan
