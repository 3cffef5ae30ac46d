"""Redo logging ("traditional recovery techniques", paper Section 3.2).

The OTP scheduler may have to *undo* a transaction that was executed in the
wrong tentative order (step CC8) and re-execute it later.  Execution is
deferred-update: a transaction writes into a private workspace that is
installed only at commit, so discarding the workspace *is* the undo.

The durable half of a site is its multi-version store, its commit history
and its commit frontier.  The store tags every committed version with the
definitive index and the id of the transaction that created it, and with
its commit time (Section 5), so the store already is the redo log: the
after-images of the commit of ``T`` at index ``i`` are the versions of
``T``'s write keys visible at ``i`` that ``T`` created.  :class:`RedoLog`
is a read-only view over the store and the history; it keeps nothing of
its own.  ``len()`` counts committed writes, not commits.

When a crashed site recovers it catches up by replaying a live peer's redo
suffix into its own multi-version store (state transfer; see
:meth:`repro.core.replica.ReplicaManager.catch_up_from`).
``records_after(last_durable_index, up_to=...)`` reads that suffix.
Replayed versions carry the *original* commit timestamps, so a recovered
site's version chains are indistinguishable from a site that never crashed.
Pruning versions (:meth:`MultiVersionStore.prune`) therefore also prunes
what a site can donate.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errors import DatabaseError
from ..types import ObjectKey
from .history import CommittedTransaction, SiteHistory
from .objects import ObjectVersion
from .storage import MultiVersionStore


class RedoLog:
    """Read-only redo view of one site's store and commit history."""

    def __init__(self, store: MultiVersionStore, history: SiteHistory) -> None:
        self._store = store
        self._history = history

    def records_after(
        self, index: int, *, up_to: int
    ) -> List[Tuple[CommittedTransaction, List[ObjectVersion]]]:
        """Return ``(commit, versions)`` for each commit with ``index <
        global_index <= up_to``.

        Commits come in definitive-index order, each with the versions it
        created in key order.  ``up_to`` bounds the suffix: a recovering site
        transfers only the donor's gap-free committed prefix and lets the
        broadcast layer deliver everything beyond it, so transfer and delivery
        never overlap.  Raises :class:`DatabaseError` when the store no longer
        holds a version that a commit in the suffix created.
        """
        records = []
        for committed in self._history.commits_in_index_range(index, up_to):
            versions = []
            for key in committed.write_keys:
                version = self.version_of(committed, key)
                if version is None:
                    raise DatabaseError(
                        f"no version of {key!r} created by {committed.transaction_id} "
                        f"at index {committed.global_index}: the store cannot donate it"
                    )
                versions.append(version)
            records.append((committed, versions))
        return records

    def holds(self, committed: CommittedTransaction, key: ObjectKey) -> bool:
        """Whether the store holds the version of ``key`` that ``committed``
        created: the one visible at its index, if ``committed`` created it.

        Asks the chain for the writer at that index, building no record.
        """
        writer = self._store.writer_at(key, committed.global_index)
        return writer == committed.transaction_id

    def version_of(
        self, committed: CommittedTransaction, key: ObjectKey
    ) -> Optional[ObjectVersion]:
        """The version of ``key`` that ``committed`` created (``None`` when
        the store no longer holds it; see :meth:`holds`)."""
        if not self.holds(committed, key):
            return None
        return self._store.version_at(key, committed.global_index)

    def __len__(self) -> int:
        """The number of committed writes recorded (not commits)."""
        return sum(
            len(committed.write_keys)
            for committed in self._history.committed_transactions()
        )
