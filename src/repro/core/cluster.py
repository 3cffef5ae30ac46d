"""Cluster facade: the main public entry point of the library.

:class:`ReplicatedDatabase` assembles a complete simulated cluster — kernel,
network, atomic broadcast endpoints and one :class:`ReplicaManager` per site
— from a :class:`ClusterConfig`, a stored-procedure registry and the initial
database contents.  Examples, workloads, benchmarks and the verification
layer all operate on this facade.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, List, Mapping, Optional

from ..broadcast.batching import BatchingEndpoint
from ..broadcast.interfaces import AtomicBroadcastEndpoint
from ..broadcast.optimistic import OptimisticAtomicBroadcast
from ..database.conflict import ConflictClassMap
from ..database.history import SiteHistory
from ..database.procedures import ProcedureRegistry
from ..errors import ReplicationError
from ..failure.crash import CrashManager
from ..failure.detector import HEARTBEAT_KIND, FailureDetector, SuspicionListener
from ..failure.suspicion import SuspicionFailoverGovernor, SuspicionSource
from ..network.dispatcher import SiteDispatcher
from ..network.transport import NetworkTransport
from ..observability.registry import FLAT_SHARD_LABEL
from ..simulation.kernel import SimulationKernel
from ..types import ObjectKey, ObjectValue, SiteId, TransactionId
from .admission import (
    CAUSE_DEFER_EXHAUSTED,
    CAUSE_OVERLOAD,
    CAUSE_SITE_DOWN,
    DECISION_ADMIT,
    DECISION_DEFER,
    POLICY_DEFER,
    AdmissionController,
)
from .config import BROADCAST_LAZY, BROADCAST_OPTIMISTIC, ClusterConfig
from .execution import QueryExecution
from .replica import LAZY_WRITES_KIND, ReplicaManager


class _PerfectDetector:
    """Oracle mode's detector: every site suspects exactly the down sites.

    It never notifies listeners — a crash or recovery already re-runs the
    election through the governor's ``site_down`` / ``site_up``.
    """

    def __init__(self, crash_manager: CrashManager) -> None:
        self._crash_manager = crash_manager

    def is_suspected(self, peer: SiteId) -> bool:
        return not self._crash_manager.is_up(peer)

    def add_listener(self, listener: SuspicionListener) -> None:
        """Nothing to register (see the class docstring)."""


class ReplicatedDatabase:
    """A fully replicated database over atomic broadcast (paper Section 2).

    Parameters
    ----------
    config:
        Cluster-level configuration (site count, broadcast protocol, network
        model, seeds...).
    registry:
        Stored procedures shared by every site.
    conflict_map:
        Optional conflict-class/partition descriptions (used by verification
        and snapshot bookkeeping; procedures carry their own class).
    initial_data:
        Initial object values loaded into every replica.
    kernel / transport:
        Optional shared simulation kernel and network transport.  When given
        (e.g. by :class:`repro.sharding.ShardedCluster`, which runs several
        broadcast groups on one simulated network), the cluster attaches its
        sites to the shared infrastructure instead of creating its own; its
        broadcast traffic is then scoped to this cluster's site group.
    """

    #: A flat cluster routes nothing; :class:`~repro.sharding.ShardedCluster`
    #: carries its :class:`~repro.sharding.router.TransactionRouter` here.
    router = None

    def __init__(
        self,
        config: ClusterConfig,
        registry: ProcedureRegistry,
        *,
        conflict_map: Optional[ConflictClassMap] = None,
        initial_data: Optional[Dict[ObjectKey, ObjectValue]] = None,
        kernel: Optional[SimulationKernel] = None,
        transport: Optional[NetworkTransport] = None,
    ) -> None:
        if transport is not None and kernel is None:
            raise ReplicationError("a shared transport requires a shared kernel")
        self.config = config
        self.registry = registry
        self.conflict_map = conflict_map or ConflictClassMap()
        self.kernel = kernel if kernel is not None else SimulationKernel(seed=config.seed)
        self.transport = transport if transport is not None else NetworkTransport(
            self.kernel,
            config.latency_model,
            loss_probability=config.loss_probability,
            record_deliveries=config.record_deliveries,
            medium_frame_time=config.medium_frame_time,
        )
        self.crash_manager = CrashManager(self.kernel, self.transport)
        self.crash_manager.tracer = config.tracer
        self.replicas: Dict[SiteId, ReplicaManager] = {}
        self._dispatchers: Dict[SiteId, SiteDispatcher] = {}
        self._broadcasts: Dict[SiteId, AtomicBroadcastEndpoint] = {}

        site_ids = config.site_ids()
        coordinator = site_ids[0]
        self._current_coordinator = coordinator
        # Crash semantics and coordinator failover: a crash destroys the
        # site's volatile state (ReplicaManager.on_crash).  A recovering site
        # adopts the current coordinator and runs the catch-up protocol
        # (ReplicaManager.on_recover: state transfer, broadcast rejoin,
        # client re-submission).
        #
        # One SuspicionFailoverGovernor decides every promotion (quorum
        # condemnation + Ω rule).  Only its inputs depend on
        # ``config.failure_detection``: with it set, every site runs a
        # heartbeat ◇P detector, so false suspicions — the case the paper's
        # consensus fallback exists for — reach the promotion path.  With it
        # unset (oracle mode — deterministic and cheap, right for experiments
        # that are not about failure handling), a perfect detector reports
        # the crash manager's ground truth, so the governor promotes at the
        # crash instant.
        self.crash_manager.add_listener(self._on_liveness_change)
        for site_id in site_ids:
            dispatcher = SiteDispatcher(self.transport, site_id)
            self._dispatchers[site_id] = dispatcher
            # One ordering protocol serves both modes: conservative processing
            # only defers Opt-delivery to the instant of TO-delivery.
            ordering = OptimisticAtomicBroadcast(
                self.kernel,
                self.transport,
                dispatcher,
                site_id,
                coordinator_site=coordinator,
                ordering_mode=config.ordering_mode,
                voting_timeout=config.voting_timeout,
                group=site_ids,
                opt_deliver_on_receipt=config.broadcast == BROADCAST_OPTIMISTIC,
            )
            ordering.tracer = config.tracer
            endpoint: AtomicBroadcastEndpoint = ordering
            if config.batching is not None:
                endpoint = BatchingEndpoint(self.kernel, ordering, config.batching)
                endpoint.tracer = config.tracer
            # A no-op gap fill is only safe when no site — up or down — holds
            # the position in its durable commit history (a down committer
            # will push the commit via state transfer when it recovers).  A
            # batching wrapper translates batch positions to the member
            # positions the histories record (its fill_safe setter installs
            # the translated hook).
            endpoint.fill_safe = self._position_uncommitted_everywhere
            self._broadcasts[site_id] = endpoint
            # Lazy replication orders nothing: a committed write set goes to
            # the group as one plain multicast (the transport is reliable).
            propagate = None
            if config.broadcast == BROADCAST_LAZY:
                propagate = partial(
                    self.transport.multicast,
                    site_id,
                    kind=LAZY_WRITES_KIND,
                    destinations=tuple(site_ids),
                )
            replica = self.replicas[site_id] = ReplicaManager(
                self.kernel,
                site_id,
                endpoint,
                registry,
                self.conflict_map,
                cpu_count=config.cpu_count,
                duration_scale=config.duration_scale,
                initial_data=dict(initial_data or {}),
                tracer=config.tracer,
                propagate=propagate,
            )
            if propagate is not None:
                dispatcher.register_kind(LAZY_WRITES_KIND, replica.on_lazy_writes)
        # Admission control: one watermark valve per site, consulted by the
        # offer_* client paths (open-loop traffic).  submit()/submit_query()
        # bypass admission on purpose — closed-loop workloads self-regulate.
        self.admission_controllers: Dict[SiteId, AdmissionController] = {}
        if config.admission is not None:
            for site_id in site_ids:
                self.admission_controllers[site_id] = AdmissionController(
                    self.replicas[site_id], config.admission
                )
        self._offer_cursor = 0

        self.failure_detectors: Dict[SiteId, FailureDetector] = {}
        detection = config.failure_detection
        detectors: Mapping[SiteId, SuspicionSource] = self.failure_detectors
        if detection is None:
            perfect = _PerfectDetector(self.crash_manager)
            detectors = {site_id: perfect for site_id in site_ids}
        else:
            for site_id in site_ids:
                detector = FailureDetector(
                    self.kernel,
                    self.transport,
                    site_id,
                    heartbeat_interval=detection.heartbeat_interval,
                    initial_timeout=detection.initial_timeout,
                    timeout_increment=detection.timeout_increment,
                    group=site_ids,
                )
                self._dispatchers[site_id].register_kind(
                    HEARTBEAT_KIND, detector.on_envelope
                )
                detector.start()
                self.failure_detectors[site_id] = detector
        self._governor = SuspicionFailoverGovernor(
            site_ids,
            detectors,
            self._on_coordinator_elected,
            quorum=None if detection is None else detection.quorum,
        )

    def _position_uncommitted_everywhere(self, position: int) -> bool:
        """Whether no replica's durable history records ``position``."""
        return not any(
            position in replica.history.global_indices()
            for replica in self.replicas.values()
        )

    # ------------------------------------------------------------- accessors
    def replica_groups(self) -> Dict[str, "ReplicatedDatabase"]:
        """The cluster as a dict of replica groups — a flat cluster is one."""
        return {FLAT_SHARD_LABEL: self}

    def site_ids(self) -> List[SiteId]:
        """Return the identifiers of all sites."""
        return list(self.replicas.keys())

    def replica(self, site_id: SiteId) -> ReplicaManager:
        """Return the replica manager of ``site_id``."""
        try:
            return self.replicas[site_id]
        except KeyError:
            raise ReplicationError(f"unknown site {site_id!r}") from None

    def broadcast_endpoint(self, site_id: SiteId) -> AtomicBroadcastEndpoint:
        """Return the atomic broadcast endpoint of ``site_id``."""
        return self._broadcasts[site_id]

    def coordinator_site(self) -> SiteId:
        """Return the site currently acting as coordinator."""
        return self._current_coordinator

    def _on_liveness_change(self, site_id: SiteId, up: bool) -> None:
        """Apply crash/recovery semantics, then let the governor re-elect."""
        detector = self.failure_detectors.get(site_id)
        if not up:
            # The crashed process loses its volatile state before anything
            # else reacts, and stops heartbeating (its detector dies with
            # it).  The crash manager only injected the fault: the governor
            # promotes once the detectors condemn the site — at once for the
            # perfect detector, after a timeout for heartbeat detectors.
            self.replicas[site_id].on_crash()
            if detector is not None:
                detector.stop()
            self._governor.site_down(site_id)
            return
        # The recovered site adopts whatever the governor last decided, then
        # rejoins; a fresh heartbeat detector announces its state (reset
        # notifies lifted suspicions) before the governor re-evaluates —
        # under the Ω rule a recovered lowest-ranked site reclaims the role
        # once it is live and no quorum suspects it.
        up_sites = [
            candidate
            for candidate in self.site_ids()
            if self.crash_manager.is_up(candidate)
        ]
        self._broadcasts[site_id].set_coordinator(self._current_coordinator)
        self.replicas[site_id].on_recover(
            [self.replicas[peer] for peer in up_sites]
        )
        if detector is not None:
            detector.reset()
            detector.start()
        self._governor.site_up(site_id)

    def _on_coordinator_elected(self, new_coordinator: SiteId) -> None:
        """Execute the view change the governor decided.

        The change is atomic across the group (every endpoint repoints in
        this one simulation event).  That is a modelling assumption standing
        in for the consensus round the paper's fallback runs among the live
        sites (``docs/recovery.md``).  Before anyone repoints,
        the incoming coordinator's position counter is raised to the highest
        counter observed in the group — the view change's state exchange —
        so positions the outgoing coordinator assigned (possibly still in
        flight) are never handed to other messages.
        """
        self._current_coordinator = new_coordinator
        floor = max(
            endpoint.next_position_to_assign
            for endpoint in self._broadcasts.values()
        )
        self._broadcasts[new_coordinator].ensure_assign_floor(floor)
        for endpoint in self._broadcasts.values():
            endpoint.set_coordinator(self._current_coordinator)
        if self.config.tracer is not None:
            self.config.tracer.record(
                self.kernel.now(), "coordinator_elected", new_coordinator
            )

    def stop_failure_detectors(self) -> None:
        """Stop all heartbeat detectors (no-op in oracle mode).

        Detectors tick forever by design; a harness that wants
        ``run_until_idle`` to terminate runs the interesting window with
        ``run(until=...)``, stops the detectors, then drains the kernel.
        """
        for detector in self.failure_detectors.values():
            detector.stop()

    # --------------------------------------------------------------- clients
    def submit(
        self,
        site_id: SiteId,
        procedure_name: str,
        parameters: Optional[Dict[str, Any]] = None,
    ) -> TransactionId:
        """Submit an update transaction at ``site_id``."""
        return self.replica(site_id).submit_transaction(procedure_name, parameters)

    def submit_query(
        self,
        site_id: SiteId,
        procedure_name: str,
        parameters: Optional[Dict[str, Any]] = None,
    ) -> QueryExecution:
        """Submit a read-only query at ``site_id`` (executed locally)."""
        return self.replica(site_id).submit_query(procedure_name, parameters)

    # ------------------------------------------------- open-loop offer paths
    def open_site_from(self, start: int) -> Optional[SiteId]:
        """First open site at or after rotation index ``start`` (failover).

        The one site picker — the offer paths and the sharded router each
        bring their own cursor.  ``None`` means the whole group is dark.
        """
        site_ids = self.site_ids()
        for offset in range(len(site_ids)):
            candidate = site_ids[(start + offset) % len(site_ids)]
            if self.replicas[candidate].is_open:
                return candidate
        return None

    def _next_offer_index(self, site_index: Optional[int]) -> int:
        if site_index is not None:
            return site_index % self.config.site_count
        self._offer_cursor += 1
        return (self._offer_cursor - 1) % self.config.site_count

    def offer_update(
        self,
        procedure_name: str,
        parameters: Optional[Dict[str, Any]] = None,
        *,
        site_index: Optional[int] = None,
    ) -> Optional[TransactionId]:
        """Offer an update through client failover and admission control.

        The open-loop entry point: unlike :meth:`submit`, which raises when
        its site is down, an *offer* models a request arriving from outside
        at its own time.  The client prefers the site at rotation index
        ``site_index`` (the facade rotates round-robin when ``None``), fails
        over to the next open site when it is closed, and the target's
        :class:`~repro.core.admission.AdmissionController` (when configured)
        may shed or defer instead of queueing.  Returns the transaction id
        when admitted now, ``None`` when shed or deferred — a deferred
        submission may still be admitted by a later internal retry, which
        the site's ``admission_*`` counters account for.
        """
        return self._offer_update(
            procedure_name,
            dict(parameters or {}),
            self._next_offer_index(site_index),
            0,
        )

    def _offer_update(
        self,
        procedure_name: str,
        parameters: Dict[str, Any],
        start: int,
        deferrals: int,
    ) -> Optional[TransactionId]:
        preferred = self.site_ids()[start]
        target = self.open_site_from(start)
        if target is None:
            # Whole replica set dark.  Under the defer policy the submission
            # waits for a recovery (the flat-cluster analogue of the sharded
            # router's dark-shard deferral); otherwise it is shed.
            admission = self.config.admission
            if (
                admission is not None
                and admission.policy == POLICY_DEFER
                and deferrals < admission.max_deferrals
            ):
                self._schedule_offer_retry(
                    procedure_name, parameters, start, deferrals, preferred
                )
                return None
            cause = CAUSE_DEFER_EXHAUSTED if deferrals else CAUSE_SITE_DOWN
            self.replicas[preferred].metrics.increment(f"admission_shed_{cause}")
            return None
        controller = self.admission_controllers.get(target)
        if controller is None:
            return self.submit(target, procedure_name, parameters)
        decision = controller.decide()
        if decision == DECISION_ADMIT:
            controller.record_admitted()
            return self.submit(target, procedure_name, parameters)
        if decision == DECISION_DEFER:
            if deferrals >= controller.config.max_deferrals:
                controller.record_shed(CAUSE_DEFER_EXHAUSTED)
                return None
            self._schedule_offer_retry(
                procedure_name, parameters, start, deferrals, target
            )
            return None
        controller.record_shed(CAUSE_OVERLOAD)
        return None

    def _schedule_offer_retry(
        self,
        procedure_name: str,
        parameters: Dict[str, Any],
        start: int,
        deferrals: int,
        counted_site: SiteId,
    ) -> None:
        admission = self.config.admission
        if admission is None:  # pragma: no cover - defer requires a config
            raise ReplicationError("cannot defer without an admission config")
        self.replicas[counted_site].metrics.increment("admission_deferred")
        self.kernel.schedule(
            admission.retry_interval,
            lambda: self._offer_update(
                procedure_name, parameters, start, deferrals + 1
            ),
            label=f"admission-defer:{procedure_name}",
        )

    def offer_query(
        self,
        procedure_name: str,
        parameters: Optional[Dict[str, Any]] = None,
        *,
        site_index: Optional[int] = None,
    ) -> Optional[QueryExecution]:
        """Offer a read-only query with client failover around closed sites.

        Queries read consistent snapshots without entering the class queues,
        so they bypass the watermark valve; only a fully dark replica set
        refuses them (counted as ``admission_shed_site_down`` at the
        preferred site) and returns ``None``.
        """
        start = self._next_offer_index(site_index)
        target = self.open_site_from(start)
        if target is None:
            preferred = self.site_ids()[start]
            self.replicas[preferred].metrics.increment(
                f"admission_shed_{CAUSE_SITE_DOWN}"
            )
            return None
        return self.submit_query(target, procedure_name, parameters)

    # ------------------------------------------------------------ simulation
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Advance the simulation (see :meth:`SimulationKernel.run`)."""
        return self.kernel.run(until=until, max_events=max_events)

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        """Run until no scheduled events remain."""
        return self.kernel.run_until_idle(max_events=max_events)

    @property
    def now(self) -> float:
        """Current virtual time of the cluster."""
        return self.kernel.now()

    # ------------------------------------------------------------ inspection
    def histories(self) -> Dict[SiteId, SiteHistory]:
        """Return the commit history of every site."""
        return {site_id: replica.history for site_id, replica in self.replicas.items()}

    def committed_counts(self) -> Dict[SiteId, int]:
        """Number of committed update transactions per site."""
        return {site_id: replica.committed_count() for site_id, replica in self.replicas.items()}

    def total_reorder_aborts(self) -> int:
        """Total CC8 abort/reschedule events across all sites."""
        return sum(replica.reorder_abort_count() for replica in self.replicas.values())

    def all_client_latencies(self) -> List[float]:
        """Client-observed commit latencies across every site."""
        latencies: List[float] = []
        for replica in self.replicas.values():
            latencies.extend(replica.client_latencies())
        return latencies

    def check_scheduler_invariants(self) -> None:
        """Check class-queue invariants at every site (raises on violation)."""
        for replica in self.replicas.values():
            replica.scheduler.check_invariants()

    def database_divergence(self) -> Dict[ObjectKey, Dict[SiteId, ObjectValue]]:
        """Return objects whose latest committed value differs across sites.

        An empty result means all replicas converged to identical contents.
        """
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
