"""Verification of a whole cluster: per-group 1SR, routed queries, everything.

:func:`check_cluster` runs the whole stack over ``cluster.replica_groups()``
(a flat cluster is one group, a sharded one a group per shard).  Sharding the
conflict classes over independent broadcast groups shapes what must be
verified:

1. **Per-group one-copy serializability** — every shard is a fully
   replicated database in its own right, so
   :func:`~repro.verification.onecopy.check_one_copy_serializability` must
   hold within each shard: its sites replay the shard's own definitive order
   (Lemma 4.1).  Because no update transaction spans shards, the union of the
   per-shard serial histories is itself serializable: any interleaving of
   transactions from different shards is conflict-free.

2. **Cross-shard query snapshot consistency** — a fanned-out query reads one
   multi-version snapshot per shard.  For the merge to be consistent, every
   sub-query's recorded result must equal a re-evaluation of the sub-query
   against its shard's final multi-version store bounded by the recorded
   query index (the snapshot corresponds to a fixed committed prefix of the
   shard's definitive order and was not perturbed by concurrent commits),
   and the recorded merged result must equal the merge of the sub-results.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple

from ..database.procedures import TransactionContext
from ..errors import VerificationError
from ..sharding.router import merge_sum
from ..types import ShardId
from .liveness import (
    LivenessReport,
    check_eventual_termination,
    check_sharded_eventual_termination,
)
from .onecopy import OneCopyReport, check_one_copy_serializability
from .properties import BroadcastPropertyReport, check_broadcast_properties
from .recovery import RecoveryReport, check_recovery_completeness


class ShardedVerificationReport:
    """One layer's verdict over every replica group (1SR + broadcast, or queries)."""

    __slots__ = (
        "ok",
        "violations",
        "per_shard_one_copy",
        "per_shard_broadcast",
        "queries_checked",
        "subqueries_checked",
    )

    def __init__(self, ok: bool) -> None:
        self.ok = ok
        self.violations: List[str] = []
        self.per_shard_one_copy: Dict[ShardId, OneCopyReport] = {}
        self.per_shard_broadcast: Dict[ShardId, BroadcastPropertyReport] = {}
        self.queries_checked = self.subqueries_checked = 0


def check_sharded_one_copy_serializability(cluster) -> ShardedVerificationReport:
    """Check 1-copy-serializability independently within every replica group.

    Each group of ``cluster.replica_groups()`` replays *its own* definitive
    total order (Lemma 4.1), together with the five
    atomic-broadcast properties of its own broadcast group — with shards
    sharing one transport, this additionally proves that no shard's group
    delivered another shard's messages (Global Agreement would fail on the
    foreign message set).
    """
    report = ShardedVerificationReport(ok=True)
    for shard_id, shard in cluster.replica_groups().items():
        endpoints = {site: shard.broadcast_endpoint(site) for site in shard.site_ids()}
        one_copy = check_one_copy_serializability(shard.histories())
        broadcast = check_broadcast_properties(endpoints)
        report.per_shard_one_copy[shard_id] = one_copy
        report.per_shard_broadcast[shard_id] = broadcast
        for layer in (one_copy, broadcast):
            if not layer.ok:
                report.ok = False
                report.violations.extend(
                    f"shard {shard_id}: {violation}" for violation in layer.violations
                )
    return report


def check_cross_shard_query_consistency(cluster) -> ShardedVerificationReport:
    """Check the snapshot consistency of fanned-out multi-shard queries.

    For every completed :class:`ShardedQueryExecution` routed through
    ``cluster.router``:

    * each sub-query's recorded result must equal re-evaluating the stored
      procedure against the final multi-version store of the site it ran on,
      bounded by the sub-query's snapshot index — i.e. the snapshot was a
      stable committed prefix of the shard's definitive order;
    * the recorded merged result must equal the merge (:func:`merge_sum`) of
      the sub-results.
    """
    report = ShardedVerificationReport(ok=True)
    for sharded_query in cluster.router.sharded_queries:
        if not sharded_query.is_complete:
            report.ok = False
            report.violations.append(
                f"query {sharded_query.query_id} never completed "
                f"({len(sharded_query.subqueries)} sub-queries)"
            )
            continue
        report.queries_checked += 1
        procedure = cluster.registry.get(sharded_query.procedure_name)
        sub_results: List[Any] = []
        for subquery in sharded_query.subqueries:
            report.subqueries_checked += 1
            execution = subquery.execution
            sub_results.append(execution.result)
            replica = cluster.shard(subquery.shard_id).replica(execution.site_id)
            context = TransactionContext(
                replica.store, snapshot_index=execution.query_index, read_only=True
            )
            # The leg's parameters are rebuilt from its own class window.
            replayed = procedure.body(context, subquery.parameters)
            if replayed != execution.result:
                report.ok = False
                report.violations.append(
                    f"query {sharded_query.query_id}, shard {subquery.shard_id}: "
                    f"sub-query result {execution.result!r} does not match the "
                    f"snapshot at index {execution.query_index} (replay gives "
                    f"{replayed!r}); the snapshot was not a stable committed prefix"
                )
        if sharded_query.merged_result != merge_sum(sub_results):
            report.ok = False
            report.violations.append(
                f"query {sharded_query.query_id}: merged result "
                f"{sharded_query.merged_result!r} does not equal the merge of its "
                f"sub-results {sub_results!r}"
            )
    return report


class ClusterVerificationReport(NamedTuple):
    """Every check of the stack over one finished run, sub-reports kept.

    The record is the tuple of its four layers, in layer order.
    """

    #: Per-group 1SR along the definitive order + broadcast properties.
    one_copy: ShardedVerificationReport
    #: Routed-query snapshot consistency (vacuously ok without a router).
    queries: ShardedVerificationReport
    liveness: LivenessReport
    recovery: RecoveryReport

    @property
    def ok(self) -> bool:
        """Whether every verification layer passed."""
        return all(layer.ok for layer in self)

    @property
    def violations(self) -> List[str]:
        """Every layer's violations, in layer order."""
        return [v for layer in self for v in layer.violations]

    def raise_if_violated(self) -> None:
        """Raise :class:`VerificationError` when any check failed."""
        if not self.ok:
            raise VerificationError(
                "cluster verification failed: " + "; ".join(self.violations)
            )


def check_cluster(cluster) -> ClusterVerificationReport:
    """The whole verification stack over a flat or sharded cluster.

    Per replica group, 1-copy-serializability against that group's
    definitive order and the five broadcast properties; then eventual
    termination, recovery completeness and — when the cluster routes
    queries — snapshot consistency of every fanned-out query.  Run it after
    ``run_until_idle()`` with every injected fault reverted.

    The one place that asks whether the cluster has a router: a routed
    query's replica-level executions are sub-queries, so liveness and query
    consistency follow the router's bookkeeping instead of the replicas'.
    """
    routed = cluster.router is not None
    return ClusterVerificationReport(
        one_copy=check_sharded_one_copy_serializability(cluster),
        queries=(
            check_cross_shard_query_consistency(cluster)
            if routed
            else ShardedVerificationReport(ok=True)
        ),
        liveness=(
            check_sharded_eventual_termination(cluster)
            if routed
            else check_eventual_termination(cluster)
        ),
        recovery=check_recovery_completeness(cluster),
    )
