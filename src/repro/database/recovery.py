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

from typing import List, Tuple

from ..errors import DatabaseError
from ..types import ObjectKey, TransactionId
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
            transaction_id, created_index = committed.transaction_id, committed.global_index
            versions = []
            for key in committed.write_keys:
                if not self._holds(transaction_id, created_index, key):
                    raise DatabaseError(
                        f"no version of {key!r} created by "
                        f"{self._history.name_of(transaction_id)} "
                        f"at index {created_index}: the store cannot donate it"
                    )
                versions.append(self._store.version_at(key, created_index))
            records.append((committed, versions))
        return records

    def _holds(self, transaction_id: TransactionId, created_index: int, key: ObjectKey) -> bool:
        """Whether the store holds the version of ``key`` that
        ``transaction_id`` created at ``created_index``: the one visible at
        that index, if ``transaction_id`` created it.

        Asks the chain for the writer at that index, building no record.
        """
        return self._store.writer_at(key, created_index) == transaction_id

    def missing_versions(self) -> List[Tuple[TransactionId, ObjectKey, int]]:
        """``(transaction, key, index)`` of every committed write whose
        version the store no longer holds, read from the history's columns."""
        history = self._history
        return [
            (transaction_id, key, created_index)
            for transaction_id, created_index, (write_keys, _) in zip(
                history.ids, history.indices, map(history.key_row, range(len(history)))
            )
            for key in write_keys
            if not self._holds(transaction_id, created_index, key)
        ]

    def __len__(self) -> int:
        """The number of committed writes recorded (not commits)."""
        return self._history.write_count()
