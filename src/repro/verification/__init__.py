"""Correctness verification: 1-copy-serializability, broadcast properties,
liveness and crash-recovery completeness."""

from .liveness import (
    LivenessReport,
    check_eventual_termination,
    check_sharded_eventual_termination,
)
from .recovery import RecoveryReport, check_recovery_completeness
from .onecopy import (
    OneCopyReport,
    check_one_copy_serializability,
)
from .properties import BroadcastPropertyReport, check_broadcast_properties
from .sharded import (
    ClusterVerificationReport,
    ShardedVerificationReport,
    check_cluster,
    check_cross_shard_query_consistency,
    check_sharded_one_copy_serializability,
)

__all__ = [
    "LivenessReport",
    "check_eventual_termination",
    "check_sharded_eventual_termination",
    "RecoveryReport",
    "check_recovery_completeness",
    "OneCopyReport",
    "check_one_copy_serializability",
    "BroadcastPropertyReport",
    "check_broadcast_properties",
    "ClusterVerificationReport",
    "ShardedVerificationReport",
    "check_cluster",
    "check_cross_shard_query_consistency",
    "check_sharded_one_copy_serializability",
]
