"""Liveness verification: every submitted operation eventually terminates.

The safety checks (:mod:`repro.verification.onecopy`,
:mod:`repro.verification.sharded`) prove that nothing *wrong* was committed;
under fault injection that is not enough — a run in which every transaction
hangs forever is perfectly 1-copy-serializable.  The paper's model (Section
2) permits crash failures with recovery over reliable channels, which makes
the complementary liveness claim testable: once the injected faults cease
and every site is back up, every submitted update transaction must commit at
its origin site, every replica of a group must converge on the same commit
count, and every snapshot query must complete.

The checks here run after ``run_until_idle()`` — virtual "eventually" — and
assume the fault plan recovered every crashed site and healed every
partition (a plan that leaves a site down forever leaves its pending
transactions legitimately unterminated; that is a configuration error of the
scenario, not a liveness bug, and is reported as such).
"""

from __future__ import annotations

from typing import Dict, List

from ..errors import VerificationError
from ..types import SiteId


class LivenessReport:
    """Result of the eventual-termination check."""

    __slots__ = ("ok", "violations", "transactions_checked", "queries_checked", "sites_checked")

    def __init__(self) -> None:
        self.ok = True
        self.violations: List[str] = []
        self.transactions_checked = self.queries_checked = self.sites_checked = 0

    def _violate(self, message: str) -> None:
        self.ok = False
        self.violations.append(message)

    def raise_if_violated(self) -> None:
        """Raise :class:`VerificationError` when any check failed."""
        if not self.ok:
            raise VerificationError(
                "liveness verification failed: " + "; ".join(self.violations)
            )


def _check_replica_group(
    report: LivenessReport,
    replicas: Dict[SiteId, "object"],
    group: str,
    *,
    check_queries: bool = True,
) -> None:
    """Check one fully replicated group (a flat cluster or one shard).

    ``check_queries=False`` skips the per-replica query checks: in a sharded
    cluster the replica-level executions are the sub-queries of routed
    cross-shard queries, whose completion the router-level check already
    covers (a parent only completes once every sub-query did) — counting
    them here too would double-report.
    """
    commit_counts: Dict[SiteId, int] = {}
    for site_id, replica in replicas.items():
        report.sites_checked += 1
        commit_counts[site_id] = replica.committed_count()
        for transaction_id, submitted in replica.submitted.items():
            report.transactions_checked += 1
            if submitted.committed_at is None:
                name = replica.history.name_of(transaction_id)
                report._violate(
                    f"{group}: transaction {name} submitted at {site_id} "
                    f"({submitted.submitted_at:.6f}s) never committed "
                    "at its origin site"
                )
        if not check_queries:
            continue
        for execution in replica.queries:
            report.queries_checked += 1
            # A query killed by a crash of its site *terminated* — the client
            # got an error and can retry elsewhere; only a query that neither
            # completed nor aborted is a liveness violation.
            if execution.completed_at is None and not getattr(
                execution, "aborted", False
            ):
                report._violate(
                    f"{group}: query {execution.query_id} at {site_id} never "
                    "completed"
                )
    if len(set(commit_counts.values())) > 1:
        report._violate(
            f"{group}: replicas did not converge on one commit count: "
            f"{dict(sorted(commit_counts.items()))}"
        )


def check_eventual_termination(cluster) -> LivenessReport:
    """Liveness check for a flat :class:`ReplicatedDatabase`.

    Every submitted update transaction committed at its origin, every local
    query completed, and all replicas committed the same number of
    transactions.  Run only after the simulation is idle and all injected
    faults have been reverted.
    """
    report = LivenessReport()
    _check_replica_group(report, cluster.replicas, group="cluster")
    return report


def check_sharded_eventual_termination(cluster) -> LivenessReport:
    """Liveness check for a :class:`ShardedCluster`.

    Applies the flat check within every shard's replica group and
    additionally requires every fanned-out cross-shard query to have merged
    its sub-results.
    """
    report = LivenessReport()
    for shard_id, shard_cluster in cluster.shards.items():
        _check_replica_group(
            report,
            shard_cluster.replicas,
            group=f"shard {shard_id}",
            check_queries=False,
        )
    for sharded_query in cluster.router.sharded_queries:
        report.queries_checked += 1
        if not sharded_query.is_complete:
            report._violate(
                f"cross-shard query {sharded_query.query_id} never completed "
                f"({len(sharded_query.subqueries)} sub-queries)"
            )
    return report
