"""Replicated-database substrate: versioned storage, stored procedures,
transactions, conflict classes, snapshots, recovery and histories."""

from .conflict import ClassQueue, ConflictClass, ConflictClassMap
from .history import (
    CommittedTransaction,
    ConflictGraph,
    SiteHistory,
    transactions_conflict,
)
from .objects import ObjectVersion, VersionChain
from .procedures import (
    ProcedureRegistry,
    StoredProcedure,
    TransactionContext,
)
from .recovery import RedoLog
from .snapshots import QuerySnapshot, SnapshotManager
from .storage import MultiVersionStore, StoreStats
from .transaction import (
    DeliveryState,
    ExecutionState,
    Transaction,
    TransactionOutcome,
    TransactionRequest,
    next_transaction_id,
)

__all__ = [
    "ClassQueue",
    "ConflictClass",
    "ConflictClassMap",
    "CommittedTransaction",
    "ConflictGraph",
    "SiteHistory",
    "transactions_conflict",
    "ObjectVersion",
    "VersionChain",
    "ProcedureRegistry",
    "StoredProcedure",
    "TransactionContext",
    "RedoLog",
    "QuerySnapshot",
    "SnapshotManager",
    "MultiVersionStore",
    "StoreStats",
    "DeliveryState",
    "ExecutionState",
    "Transaction",
    "TransactionOutcome",
    "TransactionRequest",
    "next_transaction_id",
]
