"""Execution engine: runs stored procedures with simulated service times.

The OTP scheduler submits at most one transaction per conflict class at a
time; the engine evaluates the procedure body against a private workspace
(deferred updates) and signals completion after a sampled execution time.
As in the paper's model, that time does not depend on how many other
transactions are executing.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional

from ..database.procedures import ProcedureRegistry, StoredProcedure, TransactionContext
from ..database.storage import MultiVersionStore
from ..database.transaction import Transaction
from ..errors import SchedulerError
from ..simulation.events import Event
from ..simulation.kernel import SimulationKernel
from ..simulation.randomness import RandomStream
from ..types import SiteId, TransactionId

#: Called when an execution attempt of a transaction completes.
CompletionCallback = Callable[[Transaction], None]


class _RunningExecution(NamedTuple):
    """Bookkeeping for one in-flight execution attempt."""

    transaction: Transaction
    completion_event: Event
    on_complete: CompletionCallback


class ExecutionEngine:
    """Per-site stored-procedure execution engine.

    Every submitted transaction executes at once: the engine bounds nothing.
    The execution-time/ordering-delay ratio of claim C1 is swept through
    the procedures' durations (``WorkloadSpec.update_duration``).
    """

    def __init__(
        self,
        kernel: SimulationKernel,
        store: MultiVersionStore,
        registry: ProcedureRegistry,
        site_id: SiteId,
    ) -> None:
        self.kernel = kernel
        self.store = store
        self.registry = registry
        self.site_id = site_id
        self._duration_stream: RandomStream = kernel.random.stream(
            f"execution.duration.{site_id}"
        )
        self._running: Dict[TransactionId, _RunningExecution] = {}
        self.executions_started = 0
        self.executions_completed = 0
        self.executions_cancelled = 0

    # ------------------------------------------------------------------- api
    def submit(self, transaction: Transaction, on_complete: CompletionCallback) -> None:
        """Start executing ``transaction``; ``on_complete`` fires when done."""
        if self.is_submitted(transaction.transaction_id):
            raise SchedulerError(
                f"{transaction.transaction_id} is already executing at {self.site_id}"
            )
        self._start(transaction, on_complete)

    def cancel(self, transaction: Transaction) -> bool:
        """Cancel the in-flight execution of ``transaction`` (CC8 abort).

        Returns whether anything was cancelled.
        """
        running = self._running.pop(transaction.transaction_id, None)
        if running is None:
            return False
        self.kernel.cancel(running.completion_event)
        self.executions_cancelled += 1
        return True

    def is_submitted(self, transaction_id: TransactionId) -> bool:
        """Whether the transaction is executing."""
        return transaction_id in self._running

    def crash_reset(self) -> int:
        """Cancel every running execution (the site crashed).

        Completion events are descheduled so no callback of the dead
        incarnation ever fires; returns the number of executions killed.
        """
        killed = 0
        for running in self._running.values():
            self.kernel.cancel(running.completion_event)
            killed += 1
        self._running.clear()
        self.executions_cancelled += killed
        return killed

    # -------------------------------------------------------------- internal
    def _start(self, transaction: Transaction, on_complete: CompletionCallback) -> None:
        procedure = self.registry.get(transaction.request.procedure_name)
        transaction.begin_execution(self.kernel.now())
        self.executions_started += 1

        # Evaluate the procedure body now: reads observe the committed state
        # as of the start of the execution attempt, writes go to the private
        # workspace.  The simulated service time models how long the real
        # execution would occupy the database engine.
        context = TransactionContext(self.store)
        result = procedure.body(context, transaction.request.parameters)
        # The context ends with this attempt, so the transaction adopts its
        # workspace and read set instead of copying them.
        transaction.workspace = context.workspace
        transaction.read_set = context.read_set

        duration = procedure.sample_duration(
            transaction.request.parameters, self._duration_stream
        )
        event = self.kernel.schedule(
            duration,
            partial(self._complete, transaction.transaction_id, result),
            label="exec-complete",
        )
        self._running[transaction.transaction_id] = _RunningExecution(
            transaction, event, on_complete
        )

    def _complete(self, transaction_id: TransactionId, result: object) -> None:
        running = self._running.pop(transaction_id, None)
        if running is None:
            # The execution was cancelled between scheduling and firing.
            return
        transaction = running.transaction
        transaction.complete_execution(self.kernel.now(), result)
        self.executions_completed += 1
        running.on_complete(transaction)


class QueryExecution:
    """Bookkeeping of one locally executed read-only query.

    A site keeps one per query for the whole run, so the record has slots
    and no per-instance ``__dict__``.
    """

    __slots__ = (
        "query_id",
        "procedure_name",
        "query_index",
        "started_at",
        "completed_at",
        "result",
        "aborted_at",
    )

    def __init__(
        self, query_id: str, procedure_name: str, query_index: float, started_at: float
    ) -> None:
        self.query_id = query_id
        self.procedure_name = procedure_name
        self.query_index = query_index
        self.started_at = started_at
        self.completed_at: Optional[float] = None
        self.result: object = None
        #: Set when the executing site crashed mid-query: the snapshot read
        #: died with the process and the client receives an error instead of
        #: a result.
        self.aborted_at: Optional[float] = None

    @property
    def aborted(self) -> bool:
        """Whether the query was killed by a crash of its site."""
        return self.aborted_at is not None

    @property
    def latency(self) -> Optional[float]:
        """Response time of the query (``None`` while still running)."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.started_at


class QueryEngine:
    """Executes read-only queries locally over consistent snapshots (Section 5)."""

    def __init__(
        self,
        kernel: SimulationKernel,
        store: MultiVersionStore,
        registry: ProcedureRegistry,
        site_id: SiteId,
    ) -> None:
        self.kernel = kernel
        self.store = store
        self.registry = registry
        self.site_id = site_id
        self._duration_stream = kernel.random.stream(f"query.duration.{site_id}")
        self._query_counter = 0
        self.completed: List[QueryExecution] = []
        self._pending: Dict[str, "_PendingQuery"] = {}

    def submit(
        self,
        procedure: StoredProcedure,
        parameters: Dict[str, object],
        query_index: float,
        on_complete: Callable[[QueryExecution], None],
    ) -> QueryExecution:
        """Run a query against the snapshot at ``query_index``."""
        if not procedure.is_query:
            raise SchedulerError(
                f"procedure {procedure.name!r} is an update transaction, not a query"
            )
        self._query_counter += 1
        execution = QueryExecution(
            query_id=f"Q:{self.site_id}:{self._query_counter}",
            procedure_name=procedure.name,
            query_index=query_index,
            started_at=self.kernel.now(),
        )
        context = TransactionContext(
            self.store, snapshot_index=query_index, read_only=True
        )
        result = procedure.body(context, parameters)
        duration = procedure.sample_duration(parameters, self._duration_stream)

        def finish() -> None:
            self._pending.pop(execution.query_id, None)
            execution.completed_at = self.kernel.now()
            execution.result = result
            self.completed.append(execution)
            on_complete(execution)

        event = self.kernel.schedule(
            duration, finish, label="query-complete"
        )
        self._pending[execution.query_id] = _PendingQuery(
            execution=execution, event=event, on_complete=on_complete
        )
        return execution

    def crash_reset(self) -> int:
        """Abort every in-flight query (the site crashed).

        The buffered results die with the process; each pending query is
        marked aborted and its completion callback fires once so clients (and
        the cross-shard router) can observe the failure and retry elsewhere.
        Returns the number of queries aborted.
        """
        pending = list(self._pending.values())
        self._pending.clear()
        for entry in pending:
            self.kernel.cancel(entry.event)
            entry.execution.aborted_at = self.kernel.now()
            entry.on_complete(entry.execution)
        return len(pending)


class _PendingQuery(NamedTuple):
    """One query whose simulated execution has not finished yet."""

    execution: QueryExecution
    event: "Event"
    on_complete: Callable[[QueryExecution], None]
