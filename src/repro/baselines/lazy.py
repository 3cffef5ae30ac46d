"""Asynchronous (lazy) replication baseline.

The paper's introduction contrasts OTP with the replication facilities of
commercial systems [20]: those achieve performance by *asynchronous*
replication — the update transaction commits locally at the site that
received it and the changes are propagated to the other replicas after the
commit — at the price of global consistency.  This module implements that
scheme over the same simulation substrate so that the lazy-comparison
benchmark (claim C3) can measure both sides:

* client-observed commit latency (lazy commits after local execution only);
* the consistency damage: stale reads, replica divergence windows and lost
  updates caused by conflicting transactions committing concurrently at
  different sites (resolved here by last-writer-wins on the origin
  timestamp, as typical products do).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..broadcast.fifo import FifoBroadcast
from ..database.procedures import ProcedureRegistry, TransactionContext
from ..database.storage import MultiVersionStore
from ..errors import ReplicationError
from ..metrics.collector import MetricsCollector
from ..network.dispatcher import SiteDispatcher
from ..network.latency import LatencyModel
from ..network.transport import NetworkTransport
from ..simulation.kernel import SimulationKernel
from ..types import ObjectKey, ObjectValue, SiteId, TransactionId


@dataclass(frozen=True)
class PropagatedUpdate:
    """Write-set shipped to the other replicas after a local commit."""

    transaction_id: TransactionId
    origin_site: SiteId
    started_at: float
    committed_at: float
    writes: Tuple[Tuple[ObjectKey, ObjectValue], ...]


@dataclass
class LazyCommitRecord:
    """Client-side record of one lazily replicated transaction."""

    transaction_id: TransactionId
    origin_site: SiteId
    submitted_at: float
    committed_at: Optional[float] = None

    @property
    def latency(self) -> Optional[float]:
        """Client-observed commit latency (local execution only)."""
        if self.committed_at is None:
            return None
        return self.committed_at - self.submitted_at


class LazyReplica:
    """One site of the lazily replicated database."""

    def __init__(
        self,
        kernel: SimulationKernel,
        transport: NetworkTransport,
        dispatcher: SiteDispatcher,
        site_id: SiteId,
        registry: ProcedureRegistry,
        *,
        initial_data: Optional[Dict[ObjectKey, ObjectValue]] = None,
        duration_scale: float = 1.0,
    ) -> None:
        self.kernel = kernel
        self.site_id = site_id
        self.registry = registry
        self.metrics = MetricsCollector(f"lazy:{site_id}")
        self.store = MultiVersionStore()
        if initial_data:
            self.store.load_many(initial_data)
        self.duration_scale = duration_scale
        self._duration_stream = kernel.random.stream(f"lazy.duration.{site_id}")
        self._fifo = FifoBroadcast(kernel, transport, site_id)
        self._fifo.add_listener(self._on_propagated)
        dispatcher.register_kind("fifobcast.data", self._fifo.on_envelope)
        self._commit_counter = 0
        #: Per key: (commit time, origin site, transaction id) of the write
        #: currently visible at this replica.  Used for deterministic
        #: last-writer-wins reconciliation and conflict accounting.
        self._visible_write: Dict[ObjectKey, Tuple[float, SiteId, TransactionId]] = {}
        self.commits: List[LazyCommitRecord] = []
        #: Conflict-resolution events observed at this replica: a write was
        #: discarded or overwritten by a concurrent write it had not seen
        #: (the classic lost-update anomaly of lazy replication).
        self.lost_updates = 0
        self.applied_remote_updates = 0

    # --------------------------------------------------------------- clients
    def submit_transaction(
        self, procedure_name: str, parameters: Optional[Dict[str, Any]] = None
    ) -> LazyCommitRecord:
        """Execute an update locally, commit, and propagate asynchronously."""
        parameters = dict(parameters or {})
        procedure = self.registry.get(procedure_name)
        if procedure.is_query:
            raise ReplicationError(f"{procedure_name!r} is a query; use submit_query")
        transaction_id = f"L:{self.site_id}:{next(self.kernel.serials['lazy'])}"
        record = LazyCommitRecord(
            transaction_id=transaction_id,
            origin_site=self.site_id,
            submitted_at=self.kernel.now(),
        )
        self.commits.append(record)
        self.metrics.increment("transactions_submitted")

        context = TransactionContext(self.store)
        procedure.body(context, parameters)
        duration = (
            procedure.sample_duration(parameters, self._duration_stream) * self.duration_scale
        )

        def commit_locally() -> None:
            now = self.kernel.now()
            record.committed_at = now
            self._commit_counter += 1
            self._apply_writes(
                transaction_id,
                dict(context.workspace),
                write_time=now,
                origin_site=self.site_id,
                started_at=record.submitted_at,
                local=True,
            )
            self.metrics.increment("local_commits")
            self.metrics.record_latency("client_commit_latency", now - record.submitted_at)
            # Asynchronous propagation happens *after* the commit.
            self._fifo.broadcast(
                PropagatedUpdate(
                    transaction_id=transaction_id,
                    origin_site=self.site_id,
                    started_at=record.submitted_at,
                    committed_at=now,
                    writes=tuple(sorted(context.workspace.items())),
                )
            )

        self.kernel.schedule(duration, commit_locally, label=f"lazy-commit:{transaction_id}")
        return record

    def submit_query(
        self, procedure_name: str, parameters: Optional[Dict[str, Any]] = None
    ) -> Any:
        """Execute a read-only query against the (possibly stale) local state."""
        parameters = dict(parameters or {})
        procedure = self.registry.get(procedure_name)
        if not procedure.is_query:
            raise ReplicationError(f"{procedure_name!r} is not a query")
        context = TransactionContext(self.store, read_only=True)
        self.metrics.increment("queries_executed")
        return procedure.body(context, parameters)

    # ----------------------------------------------------------- propagation
    def _on_propagated(self, fifo_id: str, origin: SiteId, content: Any) -> None:
        if not isinstance(content, PropagatedUpdate):
            return
        if content.origin_site == self.site_id:
            return
        self.applied_remote_updates += 1
        self.metrics.increment("remote_updates_applied")
        self._apply_writes(
            content.transaction_id,
            dict(content.writes),
            write_time=content.committed_at,
            origin_site=content.origin_site,
            started_at=content.started_at,
            local=False,
        )

    def _apply_writes(
        self,
        transaction_id: TransactionId,
        writes: Dict[ObjectKey, ObjectValue],
        *,
        write_time: float,
        origin_site: SiteId,
        started_at: float,
        local: bool,
    ) -> None:
        for key, value in sorted(writes.items()):
            current = self._visible_write.get(key)
            concurrent_conflict = False
            if current is not None:
                current_time, current_site, current_txn = current
                # The incoming write conflicts if the currently visible write
                # came from another site and committed after the incoming
                # transaction had already started — i.e. the incoming
                # transaction executed without seeing it.  Whichever of the
                # two loses, one update's effect is silently dropped.
                concurrent_conflict = (
                    current_txn != transaction_id
                    and current_site != origin_site
                    and current_time > started_at
                )
                if (write_time, origin_site) < (current_time, current_site):
                    # The incoming write loses last-writer-wins: discard it.
                    if concurrent_conflict:
                        self.lost_updates += 1
                        self.metrics.increment("lost_updates")
                    continue
            if concurrent_conflict:
                self.lost_updates += 1
                self.metrics.increment("lost_updates")
            self._visible_write[key] = (write_time, origin_site, transaction_id)
            self.store.install(
                key,
                value,
                created_index=self._commit_counter if local else self._commit_counter + 1,
                created_by=transaction_id,
                created_at=self.kernel.now(),
            )

    # ------------------------------------------------------------ inspection
    def database_contents(self) -> Dict[ObjectKey, ObjectValue]:
        """Latest locally visible value of every object."""
        return self.store.dump_latest()

    def client_latencies(self) -> List[float]:
        """Client-observed commit latencies at this site."""
        return list(self.metrics.latency("client_commit_latency").samples)


class LazyReplicatedDatabase:
    """Cluster facade for the lazy-replication baseline.

    Mirrors the :class:`repro.core.cluster.ReplicatedDatabase` API closely
    enough that the comparison benchmark can drive both with the same
    workload.
    """

    def __init__(
        self,
        *,
        site_count: int = 4,
        seed: int = 0,
        registry: ProcedureRegistry,
        latency_model: Optional[LatencyModel] = None,
        initial_data: Optional[Dict[ObjectKey, ObjectValue]] = None,
        duration_scale: float = 1.0,
    ) -> None:
        if site_count < 1:
            raise ReplicationError("a cluster needs at least one site")
        self.kernel = SimulationKernel(seed=seed)
        self.transport = NetworkTransport(self.kernel, latency_model)
        self.replicas: Dict[SiteId, LazyReplica] = {}
        for index in range(site_count):
            site_id = f"N{index + 1}"
            dispatcher = SiteDispatcher(self.transport, site_id)
            self.replicas[site_id] = LazyReplica(
                self.kernel,
                self.transport,
                dispatcher,
                site_id,
                registry,
                initial_data=dict(initial_data or {}),
                duration_scale=duration_scale,
            )

    # ------------------------------------------------------------- accessors
    def site_ids(self) -> List[SiteId]:
        """Return the identifiers of all sites."""
        return list(self.replicas.keys())

    def replica(self, site_id: SiteId) -> LazyReplica:
        """Return the replica at ``site_id``."""
        try:
            return self.replicas[site_id]
        except KeyError:
            raise ReplicationError(f"unknown site {site_id!r}") from None

    # --------------------------------------------------------------- clients
    def submit(
        self, site_id: SiteId, procedure_name: str, parameters: Optional[Dict[str, Any]] = None
    ) -> LazyCommitRecord:
        """Submit an update transaction at ``site_id`` (commits locally)."""
        return self.replica(site_id).submit_transaction(procedure_name, parameters)

    def submit_query(
        self, site_id: SiteId, procedure_name: str, parameters: Optional[Dict[str, Any]] = None
    ) -> Any:
        """Run a query against the local (possibly stale) state of ``site_id``."""
        return self.replica(site_id).submit_query(procedure_name, parameters)

    # ------------------------------------------------------------ simulation
    def run(self, until: Optional[float] = None) -> int:
        """Advance the simulation."""
        return self.kernel.run(until=until)

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        """Run until no scheduled events remain."""
        return self.kernel.run_until_idle(max_events=max_events)

    # ------------------------------------------------------------ inspection
    def all_client_latencies(self) -> List[float]:
        """Client-observed commit latencies across every site."""
        latencies: List[float] = []
        for replica in self.replicas.values():
            latencies.extend(replica.client_latencies())
        return latencies

    def total_lost_updates(self) -> int:
        """Number of writes discarded by last-writer-wins reconciliation."""
        return sum(replica.lost_updates for replica in self.replicas.values())

    def database_divergence(self) -> Dict[ObjectKey, Dict[SiteId, ObjectValue]]:
        """Objects whose latest value differs across sites right now."""
        contents = {
            site_id: replica.database_contents()
            for site_id, replica in self.replicas.items()
        }
        keys = set()
        for values in contents.values():
            keys.update(values)
        divergent: Dict[ObjectKey, Dict[SiteId, ObjectValue]] = {}
        for key in sorted(keys):
            observed = {site_id: contents[site_id].get(key) for site_id in contents}
            if len({repr(value) for value in observed.values()}) > 1:
                divergent[key] = observed
        return divergent
