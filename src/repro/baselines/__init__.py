"""Baselines the paper compares against (conceptually or explicitly)."""

from .conservative import (
    build_conservative_cluster,
    conservative_config,
    optimistic_config,
)
from .lazy import (
    LazyCommitRecord,
    LazyReplica,
    LazyReplicatedDatabase,
    PropagatedUpdate,
)

__all__ = [
    "build_conservative_cluster",
    "conservative_config",
    "optimistic_config",
    "LazyCommitRecord",
    "LazyReplica",
    "LazyReplicatedDatabase",
    "PropagatedUpdate",
]
