"""Per-site replica manager.

The replica manager glues together, for one site, the components of the
paper's execution model (Figure 3): the communication manager (an atomic
broadcast endpoint delivering messages optimistically and definitively) and
the transaction manager (the OTP scheduler, the execution engine, the
multi-version store and the snapshot-based query engine).

Under ``broadcast="lazy"`` the same replica runs the asynchronous
replication the paper's introduction contrasts OTP with: an update executes
and commits at its own site, and its write set is then multicast to the
others, which apply it last-writer-wins.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from ..broadcast.interfaces import AtomicBroadcastEndpoint, BroadcastMessage, NoOpFill
from ..database.conflict import ConflictClassMap
from ..database.history import CommittedTransaction, SiteHistory
from ..database.procedures import ProcedureRegistry, StoredProcedure
from ..database.recovery import RedoLog
from ..database.snapshots import SnapshotManager
from ..database.storage import MultiVersionStore
from ..database.transaction import (
    Transaction,
    TransactionRequest,
    next_transaction_id,
)
from ..errors import DatabaseError, ReplicationError
from ..metrics.collector import MetricsCollector
from ..network.message import Envelope
from ..simulation.kernel import SimulationKernel
from ..types import ConflictClassId, MessageId, ObjectKey, ObjectValue, SiteId, TransactionId
from .execution import ExecutionEngine, QueryEngine, QueryExecution

#: Envelope kind of a lazily propagated write set.
LAZY_WRITES_KIND = "lazy.writes"


class LazyWriteSet(NamedTuple):
    """A lazy commit's write set, as its site multicasts it after commit.

    Remote sites order it by ``(committed_at, origin_site)``;
    ``started_at`` tells them which visible writes it never saw.
    """

    transaction_id: TransactionId
    conflict_class: ConflictClassId
    origin_site: SiteId
    started_at: float
    committed_at: float
    writes: Tuple[Tuple[ObjectKey, ObjectValue], ...]


class SiteCrashedError(ReplicationError):
    """Raised when a client submits work to a site that is currently down."""


class SubmittedRequest:
    """Client-side bookkeeping of a submitted update transaction.

    The origin site keeps one per submission for the whole run, so the
    record has slots and no per-instance ``__dict__``.
    """

    __slots__ = ("request", "submitted_at", "committed_at", "crash_voided_at")

    def __init__(self, request: TransactionRequest, submitted_at: float) -> None:
        self.request = request
        self.submitted_at = submitted_at
        self.committed_at: Optional[float] = None
        #: Set when the origin site crashed before observing the commit: the
        #: client is told the outcome is unknown.  The recovered site
        #: re-submits the request (deduplicated cluster-wide), so the
        #: transaction still commits exactly once and ``committed_at`` is
        #: filled in eventually.
        self.crash_voided_at: Optional[float] = None

    @property
    def latency(self) -> Optional[float]:
        """Client-observed commit latency at the origin site."""
        if self.committed_at is None:
            return None
        return self.committed_at - self.submitted_at


class ReplicaManager:
    """One replica site: communication manager + transaction manager."""

    def __init__(
        self,
        kernel: SimulationKernel,
        site_id: SiteId,
        broadcast: AtomicBroadcastEndpoint,
        registry: ProcedureRegistry,
        conflict_map: ConflictClassMap,
        *,
        initial_data: Optional[Dict[ObjectKey, ObjectValue]] = None,
        tracer: Optional[Any] = None,
        propagate: Optional[Callable[[LazyWriteSet], object]] = None,
    ) -> None:
        from .scheduler import OTPScheduler  # local import to avoid a cycle

        self.kernel = kernel
        self.site_id = site_id
        self.broadcast = broadcast
        self.registry = registry
        self.conflict_map = conflict_map
        self.tracer = tracer
        self.metrics = MetricsCollector(f"replica:{site_id}")
        self.store = MultiVersionStore()
        if initial_data:
            self.store.load_many(initial_data)
        self.snapshot_manager = SnapshotManager(self.store)
        self.history = SiteHistory(site_id)
        #: Read-only redo view: the store and the history are the redo log.
        self.redo_log = RedoLog(self.store, self.history)
        self.engine = ExecutionEngine(kernel, self.store, registry, site_id)
        self.query_engine = QueryEngine(kernel, self.store, registry, site_id)
        self.scheduler = OTPScheduler(
            kernel,
            self.engine,
            commit_callback=self._on_commit,
            metrics=self.metrics,
            tracer=tracer,
        )
        self.submitted: Dict[TransactionId, SubmittedRequest] = {}
        self.queries: List[QueryExecution] = []
        self._open = True
        self._message_ids: Dict[TransactionId, MessageId] = {}
        #: Where a submitted request goes, fixed here: the TO-broadcast, or —
        #: given ``propagate``, lazy replication — this site's execution
        #: engine, with ``propagate`` shipping each committed write set.
        self._propagate = propagate
        self._send_request = (
            broadcast.broadcast if propagate is None else self._execute_locally
        )
        #: Lazy only: per key, the ``(commit time, origin site)`` of the
        #: visible write; per class, the local transactions still executing
        #: and the remote commits held back in the history behind them.
        self._visible_stamps: Dict[ObjectKey, Tuple[float, SiteId]] = {}
        self._executing: Dict[ConflictClassId, int] = {}
        self._held: Dict[ConflictClassId, List[CommittedTransaction]] = {}
        broadcast.add_opt_listener(self._on_opt_deliver)
        broadcast.add_to_listener(self._on_to_deliver)

    # -------------------------------------------------------------- liveness
    @property
    def is_open(self) -> bool:
        """Whether this site currently accepts client submissions."""
        return self._open

    @property
    def commit_frontier(self) -> int:
        """Largest index of this site's gap-free committed prefix (durable)."""
        return self.snapshot_manager.last_processed_index

    def _ensure_open(self) -> None:
        if not self._open:
            raise SiteCrashedError(
                f"site {self.site_id} is down; submissions are refused until it "
                "recovers and catches up"
            )

    # --------------------------------------------------------------- clients
    def submit_transaction(
        self, procedure_name: str, parameters: Optional[Dict[str, Any]] = None
    ) -> TransactionId:
        """Submit an update transaction at this site.

        Following the replica-control scheme of Section 2.4 the request is
        TO-broadcast to every site (under lazy replication this site executes
        it alone); the transaction identifier is returned immediately and the
        commit can be observed through :attr:`submitted`.
        """
        self._ensure_open()
        parameters = dict(parameters or {})
        procedure = self.registry.get(procedure_name)
        if procedure.is_query:
            raise ReplicationError(
                f"procedure {procedure_name!r} is a query; use submit_query instead"
            )
        transaction_id = next_transaction_id(self.kernel, self.site_id)
        now = self.kernel.now()
        request = TransactionRequest(
            transaction_id=transaction_id,
            procedure_name=procedure_name,
            parameters=parameters,
            conflict_class=procedure.resolve_conflict_class(parameters),
            origin_site=self.site_id,
            submitted_at=now,
            is_query=False,
        )
        self.submitted[transaction_id] = SubmittedRequest(
            request=request, submitted_at=now
        )
        self.metrics.counts["transactions_submitted"] += 1
        if self.tracer is not None:
            self.tracer.record(
                now,
                "submit",
                self.site_id,
                transaction_id,
                procedure=procedure_name,
                conflict_class=request.conflict_class,
            )
            self.tracer.begin(now, "lifecycle", self.site_id, transaction_id)
        self._send_request(request)
        return transaction_id

    def submit_query(
        self,
        procedure_name: str,
        parameters: Optional[Dict[str, Any]] = None,
        *,
        on_complete: Optional[Callable[[QueryExecution], None]] = None,
    ) -> QueryExecution:
        """Execute a read-only query locally over a consistent snapshot (Section 5)."""
        self._ensure_open()
        parameters = dict(parameters or {})
        procedure = self.registry.get(procedure_name)
        if not procedure.is_query:
            raise ReplicationError(
                f"procedure {procedure_name!r} is an update transaction; "
                "use submit_transaction instead"
            )
        query_index = self.snapshot_manager.next_query_index()
        self.metrics.counts["queries_submitted"] += 1

        def finished(execution: QueryExecution) -> None:
            if execution.aborted:
                self.metrics.counts["queries_aborted_by_crash"] += 1
            else:
                self.metrics.counts["queries_completed"] += 1
                if execution.latency is not None:
                    self.metrics.samples["query_latency"].append(execution.latency)
            if on_complete is not None:
                on_complete(execution)

        execution = self.query_engine.submit(procedure, parameters, query_index, finished)
        self.queries.append(execution)
        return execution

    # ------------------------------------------------------ broadcast events
    def _on_opt_deliver(self, message: BroadcastMessage) -> None:
        request = message.payload
        if not isinstance(request, TransactionRequest):
            return
        transaction_id = request.transaction_id
        if transaction_id in self.history:
            # A stale or duplicate copy of a transaction this site already
            # committed (flushed pre-crash traffic, or a post-recovery
            # re-submission racing its original): ignore it.
            self.metrics.counts["stale_deliveries_ignored"] += 1
            return
        if self.scheduler.transaction(transaction_id) is not None:
            # A second broadcast of a request whose first copy is still being
            # processed (origin re-submitted after recovering): ignore it.
            self.metrics.counts["stale_deliveries_ignored"] += 1
            return
        self._message_ids.setdefault(transaction_id, message.message_id)
        transaction = Transaction(request=request, site_id=self.site_id)
        self.metrics.counts["messages_opt_delivered"] += 1
        if self.tracer is not None:
            self.tracer.record(
                self.kernel.now(),
                "opt_deliver",
                self.site_id,
                transaction_id,
                message_id=message.message_id,
            )
        self.scheduler.on_opt_deliver(transaction)

    def _on_to_deliver(self, message: BroadcastMessage) -> None:
        payload = message.payload
        if message.definitive_position is None:
            raise ReplicationError(
                f"TO-delivered message {message.message_id} carries no definitive position"
            )
        if isinstance(payload, NoOpFill):
            # A dead position filled by the coordinator after a whole-group
            # crash: nothing to execute, but the snapshot frontier must pass.
            self.snapshot_manager.advance(message.definitive_position)
            self.metrics.counts["noop_positions_filled"] += 1
            if self.tracer is not None:
                self.tracer.record(
                    self.kernel.now(),
                    "noop_fill",
                    self.site_id,
                    position=message.definitive_position,
                )
            return
        if not isinstance(payload, TransactionRequest):
            return
        transaction_id = payload.transaction_id
        if transaction_id in self.history:
            # Definitive confirmation of a duplicate (or of a copy covered by
            # state transfer): the position holds no new work, but the
            # snapshot frontier must still pass over it.
            self.snapshot_manager.advance(message.definitive_position)
            self.metrics.counts["duplicate_orders_ignored"] += 1
            return
        transaction = self.scheduler.transaction(transaction_id)
        if transaction is not None and transaction.global_index is not None:
            # Second copy ordered while the first already holds a position.
            self.snapshot_manager.advance(message.definitive_position)
            self.metrics.counts["duplicate_orders_ignored"] += 1
            return
        self.metrics.counts["messages_to_delivered"] += 1
        opt_delivered_at = message.opt_delivered_at
        if opt_delivered_at is not None and message.to_delivered_at is not None:
            self.metrics.samples["ordering_delay"].append(
                message.to_delivered_at - opt_delivered_at
            )
        if self.tracer is not None:
            self.tracer.record(
                self.kernel.now(),
                "to_deliver",
                self.site_id,
                transaction_id,
                position=message.definitive_position,
            )
        self.scheduler.on_to_deliver(transaction_id, message.definitive_position)

    # ----------------------------------------------------------------- commit
    def _on_commit(self, transaction: Transaction) -> None:
        """Install a committed transaction's effects (called by the scheduler)."""
        if transaction.global_index is None:
            raise ReplicationError(
                f"{transaction.transaction_id} committed without a definitive index"
            )
        now = self.kernel.now()
        workspace = transaction.workspace
        write_keys = tuple(sorted(workspace))
        for key in write_keys:
            owning_class = self.conflict_map.class_of_key(key)
            if owning_class is not None and owning_class != transaction.conflict_class:
                raise ReplicationError(
                    f"{transaction.transaction_id} (class {transaction.conflict_class}) "
                    f"wrote {key!r}, which belongs to conflict class {owning_class}; "
                    "transactions may only update their own partition (paper Section 2.3)"
                )
            try:
                self.store.install(
                    key,
                    workspace[key],
                    created_index=transaction.global_index,
                    created_by=transaction.transaction_id,
                    created_at=now,
                )
            except DatabaseError as error:
                raise ReplicationError(
                    f"cannot install write of {key!r} by {transaction.transaction_id}: "
                    f"{error}. This usually means the object is updated by transactions "
                    "of different conflict classes, which violates the disjoint-partition "
                    "assumption of the concurrency-control model (paper Section 2.3)."
                ) from error
        self.snapshot_manager.advance(transaction.global_index)
        read_keys = tuple(sorted(transaction.read_set))
        if read_keys == write_keys:
            # A read-modify-write of its own keys: one tuple serves both.
            read_keys = write_keys
        self.history.record_commit(
            CommittedTransaction(
                transaction_id=transaction.transaction_id,
                conflict_class=transaction.conflict_class,
                global_index=transaction.global_index,
                committed_at=now,
                write_keys=write_keys,
                read_keys=read_keys,
                message_id=self._message_ids.pop(transaction.transaction_id, None),
            )
        )
        self.metrics.counts["commits"] += 1
        if self.tracer is not None:
            self.tracer.record(
                now,
                "commit",
                self.site_id,
                transaction.transaction_id,
                position=transaction.global_index,
                reorder_aborts=transaction.reorder_aborts,
            )
            self.tracer.end_if_open(
                now, "lifecycle", self.site_id, transaction.transaction_id,
                outcome="committed", position=transaction.global_index,
            )
        if transaction.reorder_aborts:
            self.metrics.counts["commits_after_reorder"] += 1
        samples = self.metrics.samples
        samples["commit_latency_all"].append(now - transaction.request.submitted_at)
        if transaction.to_delivered_at is not None:
            samples["to_deliver_to_commit"].append(now - transaction.to_delivered_at)
        if transaction.opt_delivered_at is not None:
            samples["opt_deliver_to_commit"].append(now - transaction.opt_delivered_at)

        submitted = self.submitted.get(transaction.transaction_id)
        if submitted is not None:
            submitted.committed_at = now
            samples["client_commit_latency"].append(now - submitted.submitted_at)

    # ------------------------------------------------------- lazy replication
    def _execute_locally(self, request: TransactionRequest) -> None:
        """Lazy submission: this site executes the update on its own."""
        conflict_class = request.conflict_class
        self._executing[conflict_class] = self._executing.get(conflict_class, 0) + 1
        self.engine.submit(
            Transaction(request=request, site_id=self.site_id), self._commit_locally
        )

    def _commit_locally(self, transaction: Transaction) -> None:
        """Lazy commit at execution end: next local index, commit, propagate."""
        transaction.global_index = self.commit_frontier + 1
        write_set = LazyWriteSet(
            transaction_id=transaction.transaction_id,
            conflict_class=transaction.conflict_class,
            origin_site=self.site_id,
            started_at=transaction.last_execution_started_at,
            committed_at=self.kernel.now(),
            writes=tuple(sorted(transaction.workspace.items())),
        )
        for key, _ in write_set.writes:
            # A local write is always the newest: whatever is visible
            # arrived, so committed, before now.
            self._wins(key, write_set)
        self._on_commit(transaction)
        conflict_class = transaction.conflict_class
        self._executing[conflict_class] -= 1
        if not self._executing[conflict_class]:
            for committed in self._held.pop(conflict_class, ()):
                self.history.record_commit(committed)
        self._propagate(write_set)

    def on_lazy_writes(self, envelope: Envelope) -> bool:
        """Apply another site's write set last-writer-wins (lazy replication).

        The write set commits here at once, at this site's next index, and
        the store keeps only its writes that are newer than the visible
        ones.  Its history record goes behind the local transactions of its
        class still executing: they read the state before it, so they come
        first in this site's serial order.
        """
        write_set = envelope.payload
        if not isinstance(write_set, LazyWriteSet):
            return False
        if write_set.origin_site == self.site_id:
            return True
        index = self.commit_frontier + 1
        now = self.kernel.now()
        for key, value in write_set.writes:
            if self._wins(key, write_set):
                self.store.install(
                    key,
                    value,
                    created_index=index,
                    created_by=write_set.transaction_id,
                    created_at=now,
                )
        self.snapshot_manager.advance(index)
        committed = CommittedTransaction(
            transaction_id=write_set.transaction_id,
            conflict_class=write_set.conflict_class,
            global_index=index,
            committed_at=now,
            write_keys=tuple(key for key, _ in write_set.writes),
        )
        if self._executing.get(write_set.conflict_class):
            self._held.setdefault(write_set.conflict_class, []).append(committed)
        else:
            self.history.record_commit(committed)
        return True

    def _wins(self, key: ObjectKey, write_set: LazyWriteSet) -> bool:
        """Whether ``write_set``'s write of ``key`` is newer than the visible one.

        Last-writer-wins on ``(commit time, origin site)``.  Either way, a
        visible write from another site that committed after ``write_set``'s
        transaction started is a lost update: neither transaction saw the
        other, and one of the two effects is dropped.
        """
        stamp = (write_set.committed_at, write_set.origin_site)
        visible = self._visible_stamps.get(key)
        if visible is not None:
            if visible[1] != write_set.origin_site and visible[0] > write_set.started_at:
                self.metrics.counts["lost_updates"] += 1
            if stamp < visible:
                return False
        self._visible_stamps[key] = stamp
        return True

    # --------------------------------------------------------- crash recovery
    def on_crash(self) -> None:
        """Destroy this site's volatile state (paper Section 2 crash model).

        The process dies: in-flight transactions are aborted and their
        workspaces discarded, the optimistic- and TO-delivery state of the
        communication manager is dropped, running snapshot queries are killed
        and the site stops accepting submissions.  What survives is exactly
        the durable state — the committed multi-version store, the commit
        history and the commit frontier, which together are the redo log.
        """
        if not self._open:
            return
        self._open = False
        now = self.kernel.now()
        lost = self.scheduler.crash_reset()
        self.engine.crash_reset()
        aborted_queries = self.query_engine.crash_reset()
        self.broadcast.crash_reset(committed_through=self.commit_frontier)
        self._message_ids.clear()
        for submitted in self.submitted.values():
            if submitted.committed_at is None and submitted.crash_voided_at is None:
                submitted.crash_voided_at = now
        self.metrics.counts["crashes"] += 1
        self.metrics.counts["inflight_lost_in_crash"] += lost
        self.metrics.counts["queries_killed_in_crash"] += aborted_queries
        if self.tracer is not None:
            closed = self.tracer.close_site_spans(now, self.site_id, outcome="crash")
            self.tracer.record(
                now,
                "crash",
                self.site_id,
                inflight_lost=lost,
                queries_killed=aborted_queries,
                spans_closed=closed,
            )

    def on_recover(self, peers: Iterable["ReplicaManager"]) -> None:
        """Recover from a crash: catch up, rejoin the group, reopen.

        ``peers`` are the replica managers of the sites currently up in this
        site's broadcast group.  The recovery protocol (paper Section 3.2,
        "traditional recovery techniques" before rejoining the broadcast
        group):

        1. state transfer — replay the redo suffix of the most advanced live
           peer (its committed versions, read through its history) into the
           local store (original commit timestamps);
        2. rejoin — re-register with the broadcast group at the current
           sequence point, so delivery resumes exactly after the transferred
           prefix;
        3. reconcile — push our own durable suffix to any live peer that is
           behind us (possible when this site survived commits that every
           other group member lost in a staggered whole-group crash);
        4. reopen for client submissions and re-submit every own transaction
           whose outcome the crash left unknown (deduplicated cluster-wide).
        """
        if self._open:
            return
        live = [peer for peer in peers if peer is not self]
        donor: Optional["ReplicaManager"] = None
        for peer in live:
            if donor is None or peer.commit_frontier > donor.commit_frontier:
                donor = peer
        if donor is not None and donor.commit_frontier > self.commit_frontier:
            self.catch_up_from(donor)
        self.broadcast.rejoin(
            donor.broadcast if donor is not None else None,
            committed_through=self.commit_frontier,
        )
        for peer in live:
            if peer.commit_frontier < self.commit_frontier:
                peer.catch_up_from(self)
        self._open = True
        self.metrics.counts["recoveries"] += 1
        if self.tracer is not None:
            self.tracer.record(
                self.kernel.now(),
                "recover",
                self.site_id,
                commit_frontier=self.commit_frontier,
            )
        for transaction_id, submitted in sorted(self.submitted.items()):
            if submitted.committed_at is not None:
                continue
            if transaction_id in self.history:
                continue
            if self.scheduler.transaction(transaction_id) is not None:
                continue
            self.metrics.counts["resubmitted_after_recovery"] += 1
            self._send_request(submitted.request)

    def catch_up_from(self, donor: "ReplicaManager") -> int:
        """State transfer: replay ``donor``'s committed suffix into this site.

        Copies every commit with ``self.commit_frontier < index <=
        donor.commit_frontier`` — the store versions it created (with their
        original commit times) and its history entry — then forces the
        snapshot frontier to the donor's.  Transactions still sitting in this
        site's scheduler queues are discarded first (their definitive
        confirmation becomes a no-op), and the broadcast endpoint is told
        which message ids the transfer covered.  Returns the number of
        transactions transferred.
        """
        after_index = self.commit_frontier
        up_to = donor.commit_frontier
        if up_to <= after_index:
            return 0
        own_indices = self.history.global_indices()
        transferred = 0
        touched_classes = set()
        for committed, versions in donor.redo_log.records_after(
            after_index, up_to=up_to
        ):
            if committed.global_index in own_indices:
                continue
            if committed.transaction_id in self.history:
                continue
            self.scheduler.discard(committed.transaction_id)
            for version in versions:
                self.store.install(
                    version.key,
                    version.value,
                    created_index=version.created_index,
                    created_by=version.created_by,
                    created_at=version.created_at,
                )
            self.history.record_commit(committed)
            self.snapshot_manager.advance(committed.global_index)
            self.broadcast.note_transfer_covered(committed.message_id)
            touched_classes.add(committed.conflict_class)
            transferred += 1
            submitted = self.submitted.get(committed.transaction_id)
            if submitted is not None and submitted.committed_at is None:
                # The client finally learns its request committed elsewhere
                # while this site was down.
                submitted.committed_at = self.kernel.now()
        self.snapshot_manager.force_frontier(up_to)
        # Tentative executions in the touched classes read pre-transfer
        # versions; committing their buffered workspaces would contradict the
        # definitive order.  Abort them so they re-execute against the
        # transferred state (a recovery-flavoured CC8).
        for conflict_class in sorted(touched_classes):
            self.scheduler.invalidate_class_executions(conflict_class)
        self.metrics.counts["state_transfer_commits"] += transferred
        return transferred

    # ------------------------------------------------------------ inspection
    def committed_count(self) -> int:
        """Number of update transactions committed at this site."""
        return len(self.history)

    def reorder_abort_count(self) -> int:
        """Number of CC8 abort/reschedule events at this site."""
        return self.metrics.count("reorder_aborts")

    def client_latencies(self) -> List[float]:
        """Commit latencies observed by clients of this site."""
        return list(self.metrics.latency("client_commit_latency").samples)

    def database_contents(self) -> Dict[ObjectKey, ObjectValue]:
        """Latest committed value of every object (for verification/examples)."""
        return self.store.dump_latest()
