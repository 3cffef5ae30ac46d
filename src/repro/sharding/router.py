"""Transaction router: cross-shard routing of updates and queries.

Update transactions belong to exactly one conflict class, so the router
forwards each one to the shard owning that class and lets the shard's own
atomic broadcast sequence it.  Read-only queries may span several conflict
classes (paper Section 5) and therefore several shards: the router splits
the class list by owning shard, runs one snapshot sub-query per shard, and
merges the partial results once every sub-query has completed.

Cross-shard consistency of the merged result follows from the paper's
argument for multi-class queries: each sub-query reads a consistent
multi-version snapshot of its shard (a committed prefix of the shard's
definitive total order), and since no update transaction spans shards there
is no cross-shard conflict a combination of per-shard snapshots could
violate.  The verification layer re-checks this property explicitly
(:mod:`repro.verification.sharded`).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.execution import QueryExecution
from ..database.procedures import ProcedureRegistry
from ..errors import ShardingError
from ..types import ConflictClassId, ShardId, SiteId, TransactionId
from ..workloads.specs import partition_class_id
from .shardmap import ShardMap

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .cluster import ShardedCluster


def partitioned_query_classes(
    procedure_name: str, parameters: Dict[str, Any]
) -> List[ConflictClassId]:
    """Classes read by a standard-workload query (``class_indexes`` param)."""
    if "class_indexes" not in parameters:
        raise ShardingError(
            f"cannot infer the conflict classes of query {procedure_name!r}: "
            "parameters carry no 'class_indexes'"
        )
    return [partition_class_id(int(index)) for index in parameters["class_indexes"]]


def partitioned_subquery_window(classes: Sequence[ConflictClassId]) -> Tuple[int, ...]:
    """A leg's ``class_indexes``: the sorted indexes of its shard's ``classes``."""
    return tuple(sorted(int(class_id[1:]) for class_id in classes))


#: The parameters besides ``class_indexes`` of a query that has none (every
#: standard query): one read-only mapping every such leg shares.
NO_OTHER_PARAMETERS: Mapping[str, Any] = MappingProxyType({})


def merge_sum(results: Sequence[Any]) -> Any:
    """The merge of fan-out queries: sum the partial results."""
    return sum(results)


class RoutedUpdate:
    """Routing record of one update transaction, returned to its client."""

    __slots__ = ("transaction_id", "conflict_class", "shard_id", "site_id", "routed_at")

    def __init__(
        self,
        transaction_id: TransactionId,
        conflict_class: ConflictClassId,
        shard_id: ShardId,
        site_id: SiteId,
        routed_at: float,
    ) -> None:
        self.transaction_id = transaction_id
        self.conflict_class = conflict_class
        self.shard_id = shard_id
        self.site_id = site_id
        self.routed_at = routed_at


class ShardSubQuery:
    """One per-shard leg of a fanned-out multi-class query.

    The router keeps every leg for the whole run, so a leg keeps no
    parameter dict: ``window`` is its shard's sorted class indexes, one
    object the router shares among every leg over the same classes, and
    ``other_parameters`` the query's remaining parameters, one mapping its
    legs share.  ``execution`` is the *latest* dispatch: a sub-query aborted
    by a replica crash is retried at another live replica, replacing it
    (``None`` only while a dispatch is deferred because its shard has no live
    replica).
    """

    __slots__ = ("shard_id", "window", "other_parameters", "execution")

    def __init__(
        self,
        shard_id: ShardId,
        window: Tuple[int, ...],
        other_parameters: Mapping[str, Any],
        execution: Optional[QueryExecution],
    ) -> None:
        self.shard_id = shard_id
        self.window = window
        self.other_parameters = other_parameters
        self.execution = execution

    @property
    def site_id(self) -> SiteId:
        """The replica of the latest dispatch (``""`` before the first)."""
        return "" if self.execution is None else self.execution.site_id

    @property
    def parameters(self) -> Dict[str, Any]:
        """The leg's procedure parameters, built on each call."""
        parameters = dict(self.other_parameters)
        parameters["class_indexes"] = self.window
        return parameters


class ShardedQueryExecution:
    """Bookkeeping of one multi-shard query and its snapshot merge.

    ``subqueries`` is the tuple of its legs, one per shard in shard order.
    """

    __slots__ = (
        "serial",
        "procedure_name",
        "submitted_at",
        "subqueries",
        "merged_result",
        "completed_at",
    )

    def __init__(self, serial: int, procedure_name: str, submitted_at: float) -> None:
        self.serial = serial
        self.procedure_name = procedure_name
        self.submitted_at = submitted_at
        self.subqueries: Tuple[ShardSubQuery, ...] = ()
        self.merged_result: Any = None
        self.completed_at: Optional[float] = None

    @property
    def query_id(self) -> str:
        """The query's name in reports, ``SQ:<serial>``."""
        return f"SQ:{self.serial}"

    @property
    def is_complete(self) -> bool:
        """Whether every sub-query completed and the merge was produced."""
        return self.completed_at is not None

    @property
    def latency(self) -> Optional[float]:
        """Response time of the whole fan-out (``None`` while running)."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at

    @property
    def shard_ids(self) -> List[ShardId]:
        """Shards this query touched."""
        return [subquery.shard_id for subquery in self.subqueries]


class TransactionRouter:
    """Routes updates to their owning shard and fans out multi-shard queries.

    Parameters
    ----------
    cluster:
        The :class:`~repro.sharding.cluster.ShardedCluster` to route into.

    A query's conflict classes and its per-shard parameters follow the
    standard partitioned workload's convention, a ``class_indexes``
    parameter (:func:`partitioned_query_classes`,
    :func:`partitioned_subquery_window`), and the per-shard partial
    results are summed (:func:`merge_sum`), matching the standard scan
    queries.

    Contract
    --------
    * **Updates** go to exactly one shard — the owner of the procedure's
      conflict class — and to a *live* replica of that shard: crashed
      replicas are skipped (client failover), and when the whole shard is
      dark the submission is parked and retried on recovery
      (:meth:`route_update` then returns ``None``, since no transaction id
      exists yet).
    * **Queries** are split by owning shard; one snapshot sub-query runs
      per shard and the merged result is released only when every leg has
      completed.  A sub-query killed by a replica crash is retried at
      another live replica of the same shard, so a routed query terminates
      whenever its shards eventually have a live member.
    * The merged result is consistent because each leg reads a committed
      snapshot prefix of its shard and no update spans shards; the
      verification layer re-checks this on every run
      (:mod:`repro.verification.sharded`).
    """

    def __init__(self, cluster: "ShardedCluster") -> None:
        self.cluster = cluster
        self.shard_map: ShardMap = cluster.shard_map
        self.registry: ProcedureRegistry = cluster.registry
        self.sharded_queries: List[ShardedQueryExecution] = []
        #: Every leg's class window, interned: one tuple per distinct window.
        self._windows: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        self._site_cursor: Dict[ShardId, int] = {}
        self._query_counter = 0
        #: Client-side retry bookkeeping: submissions deferred because the
        #: owning shard had no live replica, and sub-queries re-executed
        #: because their replica crashed mid-snapshot-read.
        self.deferred_submissions = 0
        self.retried_subqueries = 0

    #: Client retry cadence while a shard has no live replica, and a hard cap
    #: on retries so a shard that never recovers (a scenario configuration
    #: error) cannot keep the simulation alive forever.
    RETRY_INTERVAL = 0.005
    RETRY_LIMIT = 5000

    # --------------------------------------------------------------- updates
    def owner_of_update(
        self, procedure_name: str, parameters: Dict[str, Any]
    ) -> Tuple[ConflictClassId, ShardId]:
        """Resolve an update to its conflict class and the shard owning it."""
        procedure = self.registry.get(procedure_name)
        if procedure.is_query:
            raise ShardingError(
                f"procedure {procedure_name!r} is a query; use route_query instead"
            )
        conflict_class = procedure.resolve_conflict_class(parameters)
        if conflict_class is None:
            raise ShardingError(
                f"update procedure {procedure_name!r} resolved no conflict class"
            )
        return conflict_class, self.shard_map.shard_of_class(conflict_class)

    def route_update(
        self,
        procedure_name: str,
        parameters: Optional[Dict[str, Any]] = None,
        *,
        site_index: Optional[int] = None,
        _attempts: int = 0,
    ) -> Optional[RoutedUpdate]:
        """Submit an update transaction at a *live* site of its owning shard.

        ``site_index`` pins the submission to a specific replica of the shard
        (a client's home site); without it, submissions rotate round-robin
        over the shard's replicas.  A crashed replica is skipped in favour of
        the next live one (client failover); when the whole shard is dark the
        submission is deferred and retried until a replica recovers —
        ``None`` is returned for a deferred submission.
        """
        # The replica copies the dict it keeps; nothing before it mutates it.
        parameters = parameters or {}
        conflict_class, shard_id = self.owner_of_update(procedure_name, parameters)
        site_id = self._pick_site(shard_id, site_index)
        if site_id is None:
            if _attempts >= self.RETRY_LIMIT:
                raise ShardingError(
                    f"shard {shard_id} has had no live replica for "
                    f"{self.RETRY_LIMIT} retries; giving up on {procedure_name!r}"
                )
            self.deferred_submissions += 1
            self.cluster.kernel.schedule(
                self.RETRY_INTERVAL,
                lambda: self.route_update(
                    procedure_name,
                    parameters,
                    site_index=site_index,
                    _attempts=_attempts + 1,
                ),
                label=f"router-retry-update:{shard_id}",
            )
            return None
        transaction_id = self.cluster.shard(shard_id).submit(
            site_id, procedure_name, parameters
        )
        return RoutedUpdate(
            transaction_id=transaction_id,
            conflict_class=conflict_class,
            shard_id=shard_id,
            site_id=site_id,
            routed_at=self.cluster.kernel.now(),
        )

    # --------------------------------------------------------------- queries
    def route_query(
        self,
        procedure_name: str,
        parameters: Optional[Dict[str, Any]] = None,
        *,
        on_complete: Optional[Callable[[ShardedQueryExecution], None]] = None,
    ) -> ShardedQueryExecution:
        """Fan a multi-class query out to every shard it touches.

        Each owning shard executes a snapshot sub-query over its own classes;
        the merged result is produced (and ``on_complete`` fired) once the
        last sub-query finishes.  A query touching a single shard degenerates
        to one local snapshot query with no merge overhead beyond a callback.
        """
        parameters = parameters or {}
        procedure = self.registry.get(procedure_name)
        if not procedure.is_query:
            raise ShardingError(
                f"procedure {procedure_name!r} is an update transaction; "
                "use route_update instead"
            )
        classes = partitioned_query_classes(procedure_name, parameters)
        if not classes:
            raise ShardingError(f"query {procedure_name!r} reads no conflict classes")
        by_shard = self.shard_map.split_by_shard(classes)
        self._query_counter += 1
        sharded = ShardedQueryExecution(
            serial=self._query_counter,
            procedure_name=procedure_name,
            submitted_at=self.cluster.kernel.now(),
        )
        self.sharded_queries.append(sharded)
        # ``parameters`` holds ``class_indexes`` (partitioned_query_classes
        # read it); anything beside it is kept once, for every leg.
        other_parameters: Mapping[str, Any] = NO_OTHER_PARAMETERS
        if len(parameters) > 1:
            other_parameters = dict(parameters)
            del other_parameters["class_indexes"]
        sharded.subqueries = tuple(
            ShardSubQuery(
                shard_id=shard_id,
                window=self._interned_window(by_shard[shard_id]),
                other_parameters=other_parameters,
                execution=None,
            )
            for shard_id in sorted(by_shard)
        )
        remaining = {"count": len(by_shard)}

        def subquery_finished(_execution: QueryExecution) -> None:
            remaining["count"] -= 1
            if remaining["count"] > 0:
                return
            sharded.merged_result = merge_sum(
                [subquery.execution.result for subquery in sharded.subqueries]
            )
            sharded.completed_at = self.cluster.kernel.now()
            if on_complete is not None:
                on_complete(sharded)

        for entry in sharded.subqueries:
            self._dispatch_subquery(sharded, entry, subquery_finished)
        return sharded

    def _dispatch_subquery(
        self,
        sharded: ShardedQueryExecution,
        entry: ShardSubQuery,
        subquery_finished: Callable[[QueryExecution], None],
        *,
        _attempts: int = 0,
    ) -> None:
        """Run (or re-run) one sub-query at a live replica of its shard.

        A sub-query whose replica crashes mid-execution is aborted by the
        crash; the router then retries it at another live replica of the
        shard with a *fresh* snapshot index — exactly what a real client
        library would do on a connection error.  When the shard has no live
        replica at all, the dispatch is deferred and retried.
        """
        site_id = self._pick_site(entry.shard_id, None)
        if site_id is None:
            if _attempts >= self.RETRY_LIMIT:
                raise ShardingError(
                    f"shard {entry.shard_id} has had no live replica for "
                    f"{self.RETRY_LIMIT} retries; giving up on sub-query of "
                    f"{sharded.query_id}"
                )
            self.deferred_submissions += 1
            self.cluster.kernel.schedule(
                self.RETRY_INTERVAL,
                lambda: self._dispatch_subquery(
                    sharded, entry, subquery_finished, _attempts=_attempts + 1
                ),
                label=f"router-retry-subquery:{entry.shard_id}",
            )
            return

        def finished(execution: QueryExecution) -> None:
            if execution.aborted:
                self.retried_subqueries += 1
                self._dispatch_subquery(sharded, entry, subquery_finished)
                return
            subquery_finished(execution)

        entry.execution = (
            self.cluster.shard(entry.shard_id)
            .replica(site_id)
            .submit_query(sharded.procedure_name, entry.parameters, on_complete=finished)
        )

    # -------------------------------------------------------------- internal
    def _interned_window(self, classes: Sequence[ConflictClassId]) -> Tuple[int, ...]:
        """The window of ``classes``: the one tuple every leg over them shares."""
        window = partitioned_subquery_window(classes)
        return self._windows.setdefault(window, window)

    def _pick_site(self, shard_id: ShardId, site_index: Optional[int]) -> Optional[SiteId]:
        """Choose a live replica of ``shard_id`` (or ``None`` if all are down).

        A pinned ``site_index`` is the client's home replica: it is used when
        live, otherwise the scan continues round the ring — client failover
        to the next live replica.
        """
        shard = self.cluster.shard(shard_id)
        if site_index is not None:
            start = site_index
        else:
            start = self._site_cursor.get(shard_id, 0)
            self._site_cursor[shard_id] = start + 1
        return shard.open_site_from(start)
