"""Sharded replication: per-shard broadcast groups with cross-shard routing.

The paper's conflict classes partition the database into disjoint pieces
whose update transactions never conflict (Section 2.3).  This subsystem
scales the reproduction out by assigning each conflict class to a *shard* —
an independent replica set sequenced by its own atomic-broadcast group — so
total-order sequencing is no longer a global bottleneck:

* :class:`ShardMap` — static assignment of conflict classes to shards.
* :class:`ShardedCluster` — facade building one broadcast group + replica
  set per shard on a shared simulation kernel and network transport.
* :class:`TransactionRouter` — routes update transactions to their owning
  shard and fans multi-class queries out with a consistent snapshot merge.

Correctness: single-class updates keep 1-copy-serializability *per shard*
(checked by
:func:`repro.verification.sharded.check_sharded_one_copy_serializability`),
and cross-shard queries read a combination of consistent per-shard
snapshots that cannot violate serializability because no update spans
shards (:func:`repro.verification.sharded.check_cross_shard_query_consistency`).
"""

from .cluster import ShardedCluster
from .router import (
    RoutedUpdate,
    ShardSubQuery,
    ShardedQueryExecution,
    TransactionRouter,
    merge_sum,
    partitioned_query_classes,
    partitioned_subquery_window,
)
from .shardmap import ShardMap

__all__ = [
    "ShardMap",
    "ShardedCluster",
    "TransactionRouter",
    "RoutedUpdate",
    "ShardSubQuery",
    "ShardedQueryExecution",
    "merge_sum",
    "partitioned_query_classes",
    "partitioned_subquery_window",
]
