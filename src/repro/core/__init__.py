"""Core OTP algorithm: the paper's primary contribution.

Public entry points:

* :class:`ReplicatedDatabase` — build a simulated replicated database cluster
  (optimistic or conservative atomic broadcast, or lazy replication) from a
  :class:`ClusterConfig`, a stored-procedure registry and initial data.
* :class:`OTPScheduler` — the Serialization / Execution / Correctness-Check
  modules of Section 3.3, usable standalone for unit testing and analysis.
"""

from .cluster import ReplicatedDatabase
from .config import (
    BROADCAST_CHOICES,
    BROADCAST_CONSERVATIVE,
    BROADCAST_LAZY,
    BROADCAST_OPTIMISTIC,
    ClusterConfig,
    ShardingConfig,
)
from .execution import ExecutionEngine, QueryEngine, QueryExecution
from .replica import ReplicaManager, SubmittedRequest
from .scheduler import OTPScheduler

__all__ = [
    "ReplicatedDatabase",
    "ClusterConfig",
    "ShardingConfig",
    "BROADCAST_CHOICES",
    "BROADCAST_CONSERVATIVE",
    "BROADCAST_LAZY",
    "BROADCAST_OPTIMISTIC",
    "ExecutionEngine",
    "QueryEngine",
    "QueryExecution",
    "ReplicaManager",
    "SubmittedRequest",
    "OTPScheduler",
]
