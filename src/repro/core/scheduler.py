"""The OTP scheduler: Serialization, Execution and Correctness-Check modules.

This is the paper's primary contribution (Section 3.3, Figures 4-6).  The
scheduler owns one FIFO class queue per conflict class and reacts to three
kinds of events:

* ``Opt-deliver`` of a transaction       -> Serialization module (S1-S5)
* completion of a transaction execution  -> Execution module (E1-E6)
* ``TO-deliver`` of a transaction        -> Correctness-Check module (CC1-CC14)

The scheduler never commits a transaction before it is both fully executed
and TO-delivered, and it enforces that conflicting transactions commit in the
definitive total order, aborting and rescheduling tentatively mis-ordered
transactions (step CC8/CC10).  The individual steps of the pseudo-code are
referenced in comments.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..database.conflict import ClassQueue
from ..database.transaction import (
    DeliveryState,
    ExecutionState,
    Transaction,
)
from ..errors import SchedulerError
from ..metrics.collector import MetricsCollector
from ..simulation.kernel import SimulationKernel
from ..types import ConflictClassId, TransactionId
from .execution import ExecutionEngine

#: Invoked when the scheduler decides to commit a transaction; the replica
#: manager installs the workspace, records the history and notifies clients.
CommitCallback = Callable[[Transaction], None]


class OTPScheduler:
    """Optimistic transaction processing scheduler of one replica site."""

    def __init__(
        self,
        kernel: SimulationKernel,
        engine: ExecutionEngine,
        *,
        commit_callback: CommitCallback,
        metrics: Optional[MetricsCollector] = None,
        tracer: Optional[object] = None,
    ) -> None:
        self.kernel = kernel
        self.engine = engine
        self._commit_callback = commit_callback
        self.metrics = metrics or MetricsCollector("otp-scheduler")
        #: Optional :class:`~repro.observability.trace.TransactionTracer`.
        self.tracer = tracer
        self._queues: Dict[ConflictClassId, ClassQueue] = {}
        self._by_id: Dict[TransactionId, Transaction] = {}

    # -------------------------------------------------------------- queues
    def queue_for(self, conflict_class: ConflictClassId) -> ClassQueue:
        """Return (creating if necessary) the class queue of ``conflict_class``."""
        if conflict_class not in self._queues:
            self._queues[conflict_class] = ClassQueue(conflict_class)
        return self._queues[conflict_class]

    def transaction(self, transaction_id: TransactionId) -> Optional[Transaction]:
        """Return the scheduler's record of ``transaction_id`` (or ``None``)."""
        return self._by_id.get(transaction_id)

    def pending_transactions(self) -> List[Transaction]:
        """Return every queued (not yet committed) transaction."""
        return [entry for queue in self._queues.values() for entry in queue]

    def pending_count(self) -> int:
        """Return how many transactions are queued (not yet committed)."""
        return sum(len(queue) for queue in self._queues.values())

    # ------------------------------------------------- Serialization module
    def on_opt_deliver(self, transaction: Transaction) -> None:
        """Handle the Opt-delivery of ``transaction`` (Figure 4).

        S1  append the transaction to its class queue;
        S2  mark it pending and active;
        S3  if it is the only transaction in the queue
        S4      submit its execution.
        """
        if transaction.transaction_id in self._by_id:
            raise SchedulerError(
                f"{transaction.transaction_id} was opt-delivered twice to the scheduler"
            )
        self._by_id[transaction.transaction_id] = transaction
        queue = self.queue_for(transaction.conflict_class)
        transaction.mark_opt_delivered(self.kernel.now())         # S2
        queue.append(transaction)                                  # S1
        self.metrics.counts["transactions_opt_delivered"] += 1
        # The depth gauge is updated in place; set_gauge creates it once.
        depth = len(queue)
        gauge = self.metrics.gauges.get("class_queue_depth")
        if gauge is None:
            self.metrics.set_gauge("class_queue_depth", depth)
        else:
            gauge.value = depth
            if depth > gauge.maximum:
                gauge.maximum = depth
        if queue.first() is transaction:                           # S3
            self._submit(transaction)                              # S4

    # ----------------------------------------------------- Execution module
    def on_execution_complete(self, transaction: Transaction) -> None:
        """Handle the completion of an execution attempt (Figure 5).

        E1  if the transaction is marked committable
        E2      commit it and remove it from its class queue,
        E3      start executing the next transaction in the queue;
        E4  else
        E5      mark it executed.
        """
        queue = self.queue_for(transaction.conflict_class)
        if queue.first() is not transaction:
            raise SchedulerError(
                f"{transaction.transaction_id} finished executing but is not at the "
                f"head of queue {transaction.conflict_class}"
            )
        self.metrics.counts["executions_completed"] += 1
        if self.tracer is not None:
            self.tracer.end_if_open(
                self.kernel.now(),
                "execute",
                self.engine.site_id,
                transaction.transaction_id,
                outcome="executed",
            )
        if transaction.delivery_state is DeliveryState.COMMITTABLE:   # E1
            self._commit(transaction, queue)                          # E2-E3
        # E5: Transaction.complete_execution already switched the execution
        # state to EXECUTED, so nothing else to do for the else-branch.

    # --------------------------------------------- Correctness-Check module
    def on_to_deliver(self, transaction_id: TransactionId, global_index: int) -> None:
        """Handle the TO-delivery of a transaction (Figure 6).

        CC1   locate the transaction in its class queue;
        CC2   if it is marked executed (it must be the queue head)
        CC3       commit it and remove it from the queue,
        CC4       start executing the next transaction in the queue;
        CC5   else
        CC6       mark it committable,
        CC7-8     abort the queue head if that head is still pending,
        CC10      reschedule the transaction before the first pending one,
        CC11-12   submit its execution if it is now at the head.
        """
        transaction = self._by_id.get(transaction_id)                  # CC1
        if transaction is None:
            raise SchedulerError(
                f"TO-delivered transaction {transaction_id} was never opt-delivered "
                "(violates the Local Order property)"
            )
        if transaction.is_committed:
            raise SchedulerError(f"{transaction_id} was TO-delivered after committing")
        transaction.global_index = global_index
        self.metrics.counts["transactions_to_delivered"] += 1
        queue = self.queue_for(transaction.conflict_class)

        if transaction.execution_state is ExecutionState.EXECUTED:     # CC2
            if queue.first() is not transaction:
                raise SchedulerError(
                    f"{transaction_id} is executed but not at the head of its queue"
                )
            transaction.mark_committable(self.kernel.now())
            self._commit(transaction, queue)                           # CC3-CC4
            return

        # CC5: not fully executed, or not the first transaction in the queue.
        transaction.mark_committable(self.kernel.now())                # CC6
        head = queue.first()
        if head is not None and head is not transaction and head.is_pending:
            self._abort_for_reordering(head)                           # CC7-CC8
        new_position = queue.reschedule_before_pending(transaction)    # CC10
        if new_position != queue.position_of(transaction):
            raise SchedulerError("class queue reordering is inconsistent")
        if (                                                             # CC11
            queue.first() is transaction
            and not transaction.executing
            and not self.engine.is_submitted(transaction.transaction_id)
        ):
            self._submit(transaction)                                   # CC12

    # --------------------------------------------------------- crash recovery
    def crash_reset(self) -> int:
        """Destroy all volatile scheduling state (the site crashed).

        Every queued transaction — pending, executing or executed-but-not-
        committed — is discarded together with its private workspace; the
        class queues and the id index are emptied.  Returns the number of
        transactions lost with the crash.
        """
        lost = sum(len(queue) for queue in self._queues.values())
        self._queues.clear()
        self._by_id.clear()
        self.metrics.counts["transactions_lost_in_crash"] += lost
        return lost

    def discard(self, transaction_id: TransactionId) -> bool:
        """Remove a queued transaction without committing it.

        Used during recovery when a transaction still sitting in a class
        queue arrives through state transfer instead: its queued copy must
        not execute (the workspace would be installed twice).  Cancels any
        in-flight execution, unblocks the queue and returns whether anything
        was removed.
        """
        transaction = self._by_id.pop(transaction_id, None)
        if transaction is None:
            return False
        queue = self.queue_for(transaction.conflict_class)
        was_head = queue.first() is transaction
        self.engine.cancel(transaction)
        queue.remove(transaction)
        self.metrics.counts["transactions_discarded"] += 1
        if self.tracer is not None:
            self.tracer.end_if_open(
                self.kernel.now(),
                "execute",
                self.engine.site_id,
                transaction_id,
                outcome="discarded",
            )
        if was_head:
            successor = queue.first()
            if (
                successor is not None
                and not successor.executing
                and not self.engine.is_submitted(successor.transaction_id)
            ):
                self._submit(successor)
        return True

    def invalidate_class_executions(self, conflict_class: ConflictClassId) -> int:
        """Abort every tentative execution in one class queue (recovery).

        State transfer installs committed writes *around* the scheduler: a
        transaction of the same class that already executed tentatively read
        the pre-transfer versions, and committing its buffered workspace
        would serialize it before writes that precede it in the definitive
        order.  Every queued transaction of the class that is executing or
        executed is aborted exactly like a CC8 reordering abort and will
        re-execute against the transferred state.  Returns the abort count.
        """
        queue = self._queues.get(conflict_class)
        if queue is None:
            return 0
        invalidated = 0
        for transaction in list(queue):
            if transaction.executing or transaction.is_executed:
                self.engine.cancel(transaction)
                transaction.abort_for_reordering()
                self.metrics.counts["reorder_aborts"] += 1
                if self.tracer is not None:
                    now = self.kernel.now()
                    self.tracer.end_if_open(
                        now,
                        "execute",
                        self.engine.site_id,
                        transaction.transaction_id,
                        outcome="recovery_invalidation",
                    )
                    self.tracer.record(
                        now,
                        "recovery_invalidation",
                        self.engine.site_id,
                        transaction.transaction_id,
                        conflict_class=conflict_class,
                    )
                invalidated += 1
        head = queue.first()
        if (
            head is not None
            and not head.executing
            and not self.engine.is_submitted(head.transaction_id)
        ):
            self._submit(head)
        return invalidated

    # ---------------------------------------------------------------- helpers
    def _submit(self, transaction: Transaction) -> None:
        """Submit one execution attempt of the queue-head transaction."""
        self.metrics.counts["executions_submitted"] += 1
        if self.tracer is not None:
            self.tracer.begin(
                self.kernel.now(),
                "execute",
                self.engine.site_id,
                transaction.transaction_id,
                conflict_class=transaction.conflict_class,
            )
        self.engine.submit(transaction, self.on_execution_complete)

    def _abort_for_reordering(self, transaction: Transaction) -> None:
        """CC8: undo the tentative execution of a mis-ordered transaction."""
        self.engine.cancel(transaction)
        transaction.abort_for_reordering()
        self.metrics.counts["reorder_aborts"] += 1
        if self.tracer is not None:
            now = self.kernel.now()
            self.tracer.end_if_open(
                now,
                "execute",
                self.engine.site_id,
                transaction.transaction_id,
                outcome="reorder_abort",
            )
            self.tracer.record(
                now,
                "reorder_abort",
                self.engine.site_id,
                transaction.transaction_id,
                conflict_class=transaction.conflict_class,
            )

    def _commit(self, transaction: Transaction, queue: ClassQueue) -> None:
        """E2/CC3: commit the queue head, then E3/CC4: run the next one."""
        transaction.mark_committed(self.kernel.now())
        queue.remove(transaction)
        self._by_id.pop(transaction.transaction_id, None)
        self.metrics.counts["transactions_committed"] += 1
        if transaction.reorder_aborts:
            self.metrics.counts["committed_after_reordering"] += 1
        self._commit_callback(transaction)
        successor = queue.first()
        if (
            successor is not None
            and not successor.executing
            and not self.engine.is_submitted(successor.transaction_id)
        ):
            self._submit(successor)

    # -------------------------------------------------------------- invariants
    def check_invariants(self) -> None:
        """Raise :class:`SchedulerError` if a queue violates protocol invariants.

        Used by tests and by the verification layer after simulation runs:
        committable transactions always precede pending ones (consequence of
        CC10), and only queue heads may be executing or executed.
        """
        for class_id, queue in self._queues.items():
            if not queue.committable_before_pending():
                raise SchedulerError(
                    f"queue {class_id} has a pending transaction before a committable one"
                )
            for position, entry in enumerate(queue):
                if position > 0 and entry.execution_state is ExecutionState.EXECUTED:
                    raise SchedulerError(
                        f"non-head transaction {entry.transaction_id} is marked executed"
                    )
                if position > 0 and entry.executing:
                    raise SchedulerError(
                        f"non-head transaction {entry.transaction_id} is executing"
                    )
