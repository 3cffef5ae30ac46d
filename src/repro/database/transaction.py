"""Transactions and their state machine.

The paper labels every transaction with two state variables (Section 3.3):

* execution state — ``active`` or ``executed``
* delivery state  — ``pending`` (after Opt-deliver) or ``committable``
  (after TO-deliver)

plus the terminal outcomes commit and abort/reschedule.  This module defines
those states, the transaction request that travels inside broadcast
messages, and the per-site :class:`Transaction` record that the OTP modules
manipulate.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Dict, NamedTuple, Optional

from ..errors import TransactionError
from ..types import ConflictClassId, ObjectKey, ObjectValue, SiteId, TransactionId

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..simulation.kernel import SimulationKernel


def next_transaction_id(kernel: "SimulationKernel", origin: SiteId) -> TransactionId:
    """Return a transaction identifier, unique within ``kernel``."""
    return f"T:{origin}:{next(kernel.serials['transaction'])}"


class ExecutionState(enum.Enum):
    """Execution progress of a transaction at one site (paper: a / e)."""

    ACTIVE = "active"
    EXECUTED = "executed"


class DeliveryState(enum.Enum):
    """Delivery progress of a transaction at one site (paper: p / c)."""

    PENDING = "pending"
    COMMITTABLE = "committable"


class TransactionOutcome(enum.Enum):
    """Terminal outcome of a transaction at one site."""

    UNDECIDED = "undecided"
    COMMITTED = "committed"
    #: The transaction was aborted for rescheduling (it will re-execute and
    #: eventually commit); this is the CC8 abort of the paper, not a final
    #: client-visible abort.
    REORDERED = "reordered"


class TransactionRequest(NamedTuple):
    """The client request broadcast to all sites (one stored procedure call).

    Every site keeps the one it delivered for the whole run, so it is a named
    tuple: immutable, with no per-instance ``__dict__``.
    """

    transaction_id: TransactionId
    procedure_name: str
    parameters: Dict[str, Any]
    conflict_class: ConflictClassId
    origin_site: SiteId
    submitted_at: float = 0.0
    is_query: bool = False


class Transaction:
    """Per-site record of an update transaction processed by the OTP scheduler.

    Records compare by identity: a site keeps exactly one record per
    transaction id, so two records are the same transaction only if they are
    the same object (class queues rely on this for their scans).
    """

    __slots__ = (
        "request",
        "site_id",
        "transaction_id",
        "conflict_class",
        "execution_state",
        "delivery_state",
        "outcome",
        "global_index",
        "executing",
        "workspace",
        "read_set",
        "result",
        "reorder_aborts",
        "execution_attempts",
        "opt_delivered_at",
        "to_delivered_at",
        "first_execution_started_at",
        "last_execution_started_at",
        "executed_at",
        "committed_at",
    )

    def __init__(self, request: TransactionRequest, site_id: SiteId) -> None:
        self.request = request
        self.site_id = site_id
        #: Copies of ``request.transaction_id`` / ``request.conflict_class``
        #: (the request is frozen), read as plain attributes on the hot path.
        self.transaction_id: TransactionId = request.transaction_id
        self.conflict_class: ConflictClassId = request.conflict_class
        self.execution_state = ExecutionState.ACTIVE
        self.delivery_state = DeliveryState.PENDING
        self.outcome = TransactionOutcome.UNDECIDED
        #: Definitive position assigned by the atomic broadcast (None until
        #: TO-delivery).  Used as the version index for writes (Section 5).
        self.global_index: Optional[int] = None
        #: Whether the execution of this transaction has been submitted to the
        #: execution engine and has not completed yet.
        self.executing = False
        #: Buffered writes of the current execution attempt.
        self.workspace: Dict[ObjectKey, ObjectValue] = {}
        #: Keys read by the current execution attempt.
        self.read_set: set = set()
        #: Return value of the stored procedure (set when execution completes).
        self.result: Any = None
        #: How many times the transaction was aborted and rescheduled (CC8).
        self.reorder_aborts = 0
        #: How many times execution was started.
        self.execution_attempts = 0
        # -- timestamps (virtual time, seconds) -----------------------------
        self.opt_delivered_at: Optional[float] = None
        self.to_delivered_at: Optional[float] = None
        self.first_execution_started_at: Optional[float] = None
        self.last_execution_started_at: Optional[float] = None
        self.executed_at: Optional[float] = None
        self.committed_at: Optional[float] = None

    # ------------------------------------------------------------ properties
    @property
    def is_pending(self) -> bool:
        """Whether the transaction has not been TO-delivered yet."""
        return self.delivery_state is DeliveryState.PENDING

    @property
    def is_executed(self) -> bool:
        """Whether the current execution attempt has completed."""
        return self.execution_state is ExecutionState.EXECUTED

    @property
    def is_committed(self) -> bool:
        """Whether the transaction has committed at this site."""
        return self.outcome is TransactionOutcome.COMMITTED

    # ------------------------------------------------------------ transitions
    def mark_opt_delivered(self, at_time: float) -> None:
        """Record the Opt-delivery of the transaction's message (S2)."""
        if self.opt_delivered_at is not None:
            raise TransactionError(
                f"{self.transaction_id} was already opt-delivered at this site"
            )
        self.opt_delivered_at = at_time
        self.execution_state = ExecutionState.ACTIVE
        self.delivery_state = DeliveryState.PENDING

    def mark_committable(self, at_time: float) -> None:
        """Record the TO-delivery of the transaction's message (CC6)."""
        if self.is_committed:
            raise TransactionError(f"{self.transaction_id} already committed")
        self.to_delivered_at = at_time
        self.delivery_state = DeliveryState.COMMITTABLE

    def begin_execution(self, at_time: float) -> None:
        """Record the start of an execution attempt (S4, CC12, E3/CC4)."""
        if self.is_committed:
            raise TransactionError(f"cannot execute committed {self.transaction_id}")
        if self.executing:
            raise TransactionError(f"{self.transaction_id} is already executing")
        self.executing = True
        self.execution_state = ExecutionState.ACTIVE
        self.execution_attempts += 1
        self.workspace = {}
        self.read_set = set()
        if self.first_execution_started_at is None:
            self.first_execution_started_at = at_time
        self.last_execution_started_at = at_time

    def complete_execution(self, at_time: float, result: Any) -> None:
        """Record the completion of the current execution attempt (E5)."""
        if not self.executing:
            raise TransactionError(
                f"{self.transaction_id} completed execution without having started"
            )
        self.executing = False
        self.execution_state = ExecutionState.EXECUTED
        self.executed_at = at_time
        self.result = result

    def abort_for_reordering(self) -> None:
        """Undo the current execution attempt so it can re-run later (CC8).

        The transaction stays in the class queue and will be re-executed; its
        buffered workspace is discarded, which is the deferred-update
        equivalent of undoing its modifications.
        """
        if self.is_committed:
            raise TransactionError(f"cannot abort committed {self.transaction_id}")
        self.executing = False
        self.execution_state = ExecutionState.ACTIVE
        self.outcome = TransactionOutcome.UNDECIDED
        self.reorder_aborts += 1
        self.workspace = {}
        self.read_set = set()
        self.result = None
        self.executed_at = None

    def mark_committed(self, at_time: float) -> None:
        """Record the commit of the transaction at this site (E2, CC3)."""
        if self.is_committed:
            raise TransactionError(f"{self.transaction_id} committed twice")
        if self.delivery_state is not DeliveryState.COMMITTABLE:
            raise TransactionError(
                f"{self.transaction_id} cannot commit before being TO-delivered"
            )
        if self.execution_state is not ExecutionState.EXECUTED:
            raise TransactionError(
                f"{self.transaction_id} cannot commit before finishing execution"
            )
        self.outcome = TransactionOutcome.COMMITTED
        self.committed_at = at_time

    # -------------------------------------------------------------- niceties
    def state_label(self) -> str:
        """Compact ``[a|e, p|c]`` label matching the paper's notation."""
        execution = "a" if self.execution_state is ExecutionState.ACTIVE else "e"
        delivery = "p" if self.delivery_state is DeliveryState.PENDING else "c"
        return f"{self.transaction_id}[{execution},{delivery}]"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Transaction({self.state_label()}, class={self.conflict_class})"
