"""Baselines the paper compares against (conceptually or explicitly).

The conservative baseline is not a module: it is
``ClusterConfig(broadcast=BROADCAST_CONSERVATIVE)`` on the one cluster
facade.
"""

from .lazy import (
    LazyCommitRecord,
    LazyReplica,
    LazyReplicatedDatabase,
    PropagatedUpdate,
)

__all__ = [
    "LazyCommitRecord",
    "LazyReplica",
    "LazyReplicatedDatabase",
    "PropagatedUpdate",
]
