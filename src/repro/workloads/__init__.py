"""Workload specifications, standard stored procedures and the generator."""

from .arrivals import (
    OpenLoopOperation,
    OpenLoopPlan,
    OpenLoopSpec,
    OpenLoopTrafficEngine,
    PoissonArrivals,
)
from .generator import (
    GeneratedOperation,
    WorkloadGenerator,
    WorkloadPlan,
)
from .procedures import (
    READ_CLASSES_QUERY,
    SUM_ALL_QUERY,
    UPDATE_PROCEDURE,
    build_conflict_map,
    build_initial_data,
    build_partitioned_registry,
)
from .sharded import (
    ShardedWorkloadGenerator,
    ShardedWorkloadSpec,
    build_shard_map,
)
from .specs import (
    PARTITION_KEY_PREFIX,
    WorkloadSpec,
    partition_class_id,
    partition_key,
)

__all__ = [
    "OpenLoopOperation",
    "OpenLoopPlan",
    "OpenLoopSpec",
    "OpenLoopTrafficEngine",
    "PoissonArrivals",
    "GeneratedOperation",
    "WorkloadGenerator",
    "WorkloadPlan",
    "READ_CLASSES_QUERY",
    "SUM_ALL_QUERY",
    "UPDATE_PROCEDURE",
    "build_conflict_map",
    "build_initial_data",
    "build_partitioned_registry",
    "ShardedWorkloadGenerator",
    "ShardedWorkloadSpec",
    "build_shard_map",
    "WorkloadSpec",
    "PARTITION_KEY_PREFIX",
    "partition_class_id",
    "partition_key",
]
