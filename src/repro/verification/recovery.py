"""Recovery-completeness verification.

Safety says nothing wrong was committed and liveness says everything
terminated; with real crash semantics a third family of properties matters:
a site that crashed and recovered must end the run *indistinguishable* from
a replica that never crashed.  Concretely, after the simulation is idle and
every injected fault has been reverted:

* the recovered site's multi-version store equals a live peer's committed
  state (the redo-log catch-up actually transferred the whole prefix);
* its commit history covers exactly the same transactions;
* its commit frontier reached the group's frontier (snapshots are as fresh
  as everyone else's);
* its store holds, for every committed transaction and every key it wrote,
  the version that transaction created at its definitive index (the store
  is the redo log it would donate to the *next* recovering site);
* no zombie in-flight work survived the crash — the scheduler queues of
  every up site are empty once the run terminates;
* every site that crashed and came back actually ran the recovery protocol
  (recorded a recovery) and reopened for clients.
"""

from __future__ import annotations

from typing import List

from ..errors import VerificationError


class RecoveryReport:
    """Result of the recovery-completeness check."""

    __slots__ = (
        "ok",
        "violations",
        "sites_checked",
        "recovered_sites_checked",
        "transferred_commits",
    )

    def __init__(self) -> None:
        self.ok = True
        self.violations: List[str] = []
        self.sites_checked = self.recovered_sites_checked = self.transferred_commits = 0

    def _violate(self, message: str) -> None:
        self.ok = False
        self.violations.append(message)

    def raise_if_violated(self) -> None:
        """Raise :class:`VerificationError` when any check failed."""
        if not self.ok:
            raise VerificationError(
                "recovery verification failed: " + "; ".join(self.violations)
            )


def _check_group(report: RecoveryReport, group, label: str) -> None:
    """Check one replica group (the flat cluster's, or one shard's)."""
    replicas = group.replicas
    if not replicas:
        return
    reference_site = max(
        sorted(replicas), key=lambda site_id: replicas[site_id].commit_frontier
    )
    reference = replicas[reference_site]
    reference_contents = reference.database_contents()
    reference_history = reference.history
    for site_id, replica in sorted(replicas.items()):
        report.sites_checked += 1
        crashes = group.crash_manager.crash_count(site_id)
        if crashes > 0:
            report.recovered_sites_checked += 1
            report.transferred_commits += replica.metrics.count(
                "state_transfer_commits"
            )
        if replica.database_contents() != reference_contents:
            report._violate(
                f"{label}: store of {site_id} differs from {reference_site} "
                "after recovery"
            )
        history = replica.history
        # Ids are unique in a history, so equal sizes and no id without a
        # reference row mean equal sets.
        reference_rows = reference_history.row_of
        known = len(reference_rows)
        extra = [t for t in history.ids if t >= known or reference_rows[t] < 0]
        if extra or len(history) != len(reference_history):
            missing = [t for t in reference_history.ids if t not in history]
            name = history.name_of
            report._violate(
                f"{label}: history of {site_id} does not match {reference_site} "
                f"(missing e.g. {[name(t) for t in sorted(missing)[:3]]}, "
                f"extra e.g. {[name(t) for t in sorted(extra)[:3]]})"
            )
        if replica.commit_frontier != reference.commit_frontier:
            report._violate(
                f"{label}: commit frontier of {site_id} "
                f"({replica.commit_frontier}) lags {reference_site} "
                f"({reference.commit_frontier})"
            )
        missing = replica.redo_log.missing_versions()
        if missing:
            examples = [(history.name_of(t), key, index) for t, key, index in missing[:3]]
            report._violate(
                f"{label}: store of {site_id} lacks {len(missing)} committed "
                f"versions (e.g. (transaction, key, index) {examples}) — it "
                "could not serve as a state-transfer donor"
            )
        if group.crash_manager.is_up(site_id):
            pending = replica.scheduler.pending_transactions()
            if pending:
                report._violate(
                    f"{label}: {site_id} still holds {len(pending)} queued "
                    "transactions after the run went idle"
                )
            if crashes > 0:
                if replica.metrics.count("recoveries") < 1:
                    report._violate(
                        f"{label}: {site_id} crashed {crashes}x but never ran "
                        "the recovery protocol"
                    )
                if not replica.is_open:
                    report._violate(
                        f"{label}: {site_id} recovered but never reopened for "
                        "client submissions"
                    )


def check_recovery_completeness(cluster) -> RecoveryReport:
    """Check that every recovered site fully caught up with its group.

    Checks every replica group of the facade (``cluster.replica_groups()``:
    one for a flat cluster, one per shard); run it only after
    ``run_until_idle()`` with every injected fault reverted.
    """
    report = RecoveryReport()
    for group_id, group in cluster.replica_groups().items():
        _check_group(report, group, label=f"shard {group_id}")
    return report
