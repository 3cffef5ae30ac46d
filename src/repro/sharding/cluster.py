"""Sharded cluster facade: one broadcast group + replica set per shard.

The seed reproduction runs every conflict class through a single
fully-replicated atomic-broadcast group, making total-order sequencing a
global bottleneck.  :class:`ShardedCluster` removes it: conflict classes are
partitioned over shards by a :class:`~repro.sharding.shardmap.ShardMap`, and
every shard gets its own replica set and its own atomic broadcast group
(with its own sequencer/coordinator) on a shared simulation kernel and
network transport.  Update transactions are sequenced only within their
shard; multi-class queries are fanned out and merged by the
:class:`~repro.sharding.router.TransactionRouter`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

from ..core.cluster import ReplicatedDatabase
from ..core.config import ShardingConfig
from ..database.conflict import ConflictClassMap
from ..database.procedures import ProcedureRegistry
from ..errors import ShardingError
from ..network.transport import NetworkTransport
from ..simulation.kernel import SimulationKernel
from ..types import ObjectKey, ObjectValue, ShardId, SiteId, TransactionId
from .router import (
    QueryClassesFn,
    RoutedUpdate,
    ShardedQueryExecution,
    SubqueryParametersFn,
    TransactionRouter,
    merge_sum,
    partitioned_query_classes,
    partitioned_subquery_parameters,
)
from .shardmap import ShardMap


class ShardedCluster:
    """A sharded replicated database: independent broadcast groups per shard.

    Parameters
    ----------
    config:
        Shard-level configuration (shard count, replicas per shard, broadcast
        protocol, shared network model, seed...).
    registry:
        Stored procedures, shared by every shard (a procedure only ever
        touches its own conflict class's partition).
    conflict_map:
        The global conflict-class/partition map; every class must be assigned
        to a shard by ``shard_map``.
    shard_map:
        Assignment of conflict classes to shards.  Defaults to contiguous
        blocks over ``config.shard_ids()``.
    initial_data:
        Initial object values; each key is loaded only into the replicas of
        the shard owning its conflict class.
    """

    def __init__(
        self,
        config: ShardingConfig,
        registry: ProcedureRegistry,
        *,
        conflict_map: ConflictClassMap,
        shard_map: Optional[ShardMap] = None,
        initial_data: Optional[Dict[ObjectKey, ObjectValue]] = None,
        query_classes: QueryClassesFn = partitioned_query_classes,
        subquery_parameters: SubqueryParametersFn = partitioned_subquery_parameters,
        query_merge: Callable[[Sequence[Any]], Any] = merge_sum,
    ) -> None:
        self.config = config
        self.registry = registry
        self.conflict_map = conflict_map
        if shard_map is None:
            shard_map = ShardMap.contiguous(conflict_map.class_ids(), config.shard_ids())
        self.shard_map = shard_map
        self._validate_shard_map()

        self.kernel = SimulationKernel(seed=config.seed)
        self.transport = NetworkTransport(
            self.kernel,
            config.latency_model,
            loss_probability=config.loss_probability,
            record_deliveries=config.record_deliveries,
            medium_frame_time=config.medium_frame_time,
        )

        self.shards: Dict[ShardId, ReplicatedDatabase] = {}
        data_by_shard = self._partition_initial_data(dict(initial_data or {}))
        for shard_index, shard_id in enumerate(config.shard_ids()):
            self.shards[shard_id] = ReplicatedDatabase(
                config.shard_cluster_config(shard_index),
                registry,
                conflict_map=self._shard_conflict_map(shard_id),
                initial_data=data_by_shard.get(shard_id, {}),
                kernel=self.kernel,
                transport=self.transport,
            )
        self.router = TransactionRouter(
            self,
            query_classes=query_classes,
            subquery_parameters=subquery_parameters,
            merge=query_merge,
        )

    # -------------------------------------------------------------- assembly
    def _validate_shard_map(self) -> None:
        known_shards = set(self.config.shard_ids())
        for class_id in self.conflict_map.class_ids():
            shard_id = self.shard_map.shard_of_class(class_id)  # raises if unassigned
            if shard_id not in known_shards:
                raise ShardingError(
                    f"conflict class {class_id!r} is assigned to unknown shard "
                    f"{shard_id!r} (configured shards: {sorted(known_shards)})"
                )

    def _shard_conflict_map(self, shard_id: ShardId) -> ConflictClassMap:
        """The slice of the global conflict map owned by ``shard_id``."""
        shard_classes = ConflictClassMap()
        for class_id in self.shard_map.classes_of_shard(shard_id):
            descriptor = self.conflict_map.get(class_id)
            shard_classes.define(
                class_id,
                key_prefixes=descriptor.key_prefixes,
                description=descriptor.description,
            )
        return shard_classes

    def _partition_initial_data(
        self, initial_data: Dict[ObjectKey, ObjectValue]
    ) -> Dict[ShardId, Dict[ObjectKey, ObjectValue]]:
        partitioned: Dict[ShardId, Dict[ObjectKey, ObjectValue]] = {}
        for key, value in initial_data.items():
            shard_id = self.shard_map.shard_of_key(key, self.conflict_map)
            if shard_id is None:
                raise ShardingError(
                    f"initial object {key!r} belongs to no sharded conflict class; "
                    "every key must be owned by exactly one shard"
                )
            partitioned.setdefault(shard_id, {})[key] = value
        return partitioned

    # ------------------------------------------------------------- accessors
    def replica_groups(self) -> Dict[ShardId, ReplicatedDatabase]:
        """The cluster as a dict of replica groups: one per shard."""
        return self.shards

    def shard_ids(self) -> List[ShardId]:
        """Return the identifiers of all shards."""
        return list(self.shards.keys())

    def shard(self, shard_id: ShardId) -> ReplicatedDatabase:
        """Return the replica group of ``shard_id``."""
        try:
            return self.shards[shard_id]
        except KeyError:
            raise ShardingError(f"unknown shard {shard_id!r}") from None

    def site_ids(self) -> List[SiteId]:
        """Return the site identifiers of every shard (grouped by shard)."""
        sites: List[SiteId] = []
        for shard in self.shards.values():
            sites.extend(shard.site_ids())
        return sites

    # --------------------------------------------------------------- clients
    def submit_update(
        self,
        procedure_name: str,
        parameters: Optional[Dict[str, Any]] = None,
        *,
        site_index: Optional[int] = None,
    ) -> Optional[RoutedUpdate]:
        """Route an update transaction to a live site of its owning shard.

        Crashed replicas are skipped (client failover).  When the whole
        shard is down the submission is deferred and retried by the router
        until a replica recovers; ``None`` is returned in that case, as the
        transaction id is not known yet.
        """
        return self.router.route_update(
            procedure_name, parameters, site_index=site_index
        )

    def offer_update(
        self,
        procedure_name: str,
        parameters: Optional[Dict[str, Any]] = None,
        *,
        site_index: Optional[int] = None,
    ) -> Optional[TransactionId]:
        """Offer an update to its owning shard's admission-aware path.

        The open-loop counterpart of :meth:`submit_update`: the owning shard
        is resolved from the procedure's conflict class, then the offer goes
        through that shard's :meth:`~repro.core.cluster.ReplicatedDatabase.
        offer_update` — client failover over the shard's replicas and, when
        ``config.admission`` is set, the per-site watermark valve.  A
        saturated or dark shard therefore sheds or defers *its own* traffic
        while every other shard keeps admitting (per-shard backpressure).
        Returns the transaction id when admitted now, ``None`` otherwise.
        """
        parameters = dict(parameters or {})
        _, shard_id = self.router.owner_of_update(procedure_name, parameters)
        return self.shard(shard_id).offer_update(
            procedure_name, parameters, site_index=site_index
        )

    def submit_query(
        self,
        procedure_name: str,
        parameters: Optional[Dict[str, Any]] = None,
        *,
        site_index: Optional[int] = None,
        on_complete: Optional[Callable[[ShardedQueryExecution], None]] = None,
    ) -> ShardedQueryExecution:
        """Fan a multi-class query out over the shards it touches."""
        return self.router.route_query(
            procedure_name, parameters, site_index=site_index, on_complete=on_complete
        )

    # ------------------------------------------------------------ simulation
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Advance the shared simulation kernel."""
        return self.kernel.run(until=until, max_events=max_events)

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        """Run until no scheduled events remain in any shard."""
        return self.kernel.run_until_idle(max_events=max_events)

    def stop_failure_detectors(self) -> None:
        """Stop every shard's heartbeat detectors (no-op in oracle mode)."""
        for shard in self.shards.values():
            shard.stop_failure_detectors()

    @property
    def now(self) -> float:
        """Current virtual time shared by all shards."""
        return self.kernel.now()

    # ------------------------------------------------------------ inspection
    def check_scheduler_invariants(self) -> None:
        """Check class-queue invariants in every shard (raises on violation)."""
        for shard in self.shards.values():
            shard.check_scheduler_invariants()

    def database_divergence(self) -> Dict[ShardId, Dict[ObjectKey, Dict[SiteId, ObjectValue]]]:
        """Per-shard replica divergence (empty everywhere when converged)."""
        divergence = {
            shard_id: shard.database_divergence()
            for shard_id, shard in self.shards.items()
        }
        return {shard_id: diff for shard_id, diff in divergence.items() if diff}
