"""repro — Processing Transactions over Optimistic Atomic Broadcast Protocols.

A faithful, simulation-based reproduction of Kemme, Pedone, Alonso & Schiper
(ICDCS 1999): a replicated database architecture that overlaps the
coordination phase of an atomic broadcast with the execution of transactions
by delivering every message twice (optimistically on receipt, definitively
once the total order is agreed) while preserving 1-copy-serializability.

Quickstart::

    from repro import ClusterConfig, ProcedureRegistry, ReplicatedDatabase

    registry = ProcedureRegistry()

    @registry.procedure("deposit", conflict_class="C_accounts")
    def deposit(ctx, params):
        balance = ctx.read(params["account"])
        ctx.write(params["account"], balance + params["amount"])

    cluster = ReplicatedDatabase(
        ClusterConfig(site_count=4), registry,
        initial_data={"account:alice": 100},
    )
    cluster.submit("N1", "deposit", {"account": "account:alice", "amount": 25})
    cluster.run_until_idle()
    print(cluster.replica("N3").database_contents())
"""

from .broadcast.batching import BatchingConfig
from .core import (
    BROADCAST_CONSERVATIVE,
    BROADCAST_LAZY,
    BROADCAST_OPTIMISTIC,
    ClusterConfig,
    ReplicatedDatabase,
    ShardingConfig,
)
from .database import (
    ConflictClassMap,
    ProcedureRegistry,
    StoredProcedure,
    TransactionContext,
)
from .sharding import ShardMap, ShardedCluster, TransactionRouter

__version__ = "1.1.0"

__all__ = [
    "BatchingConfig",
    "ClusterConfig",
    "ReplicatedDatabase",
    "ShardingConfig",
    "ShardMap",
    "ShardedCluster",
    "TransactionRouter",
    "BROADCAST_OPTIMISTIC",
    "BROADCAST_CONSERVATIVE",
    "BROADCAST_LAZY",
    "ConflictClassMap",
    "ProcedureRegistry",
    "StoredProcedure",
    "TransactionContext",
    "__version__",
]
