"""Redo logging ("traditional recovery techniques", paper Section 3.2).

The OTP scheduler may have to *undo* a transaction that was executed in the
wrong tentative order (step CC8) and re-execute it later.  Execution is
deferred-update: a transaction writes into a private workspace that is
installed only at commit, so discarding the workspace *is* the undo.

The redo log is the durable half of a site: every committed write is
recorded together with its definitive index and real commit time.  The log
holds one entry per committed transaction — ``(transaction_id, index,
committed_at, writes)`` with the writes sorted by key — in commit order, so
the commit path appends one tuple however many keys it wrote.  ``len()``
still counts writes, not commits.

When a crashed site recovers it catches up by replaying a live peer's redo
suffix into its own multi-version store (state transfer; see
:meth:`repro.core.replica.ReplicaManager.catch_up_from`).
``records_after(last_durable_index)`` expands the suffix into one
:class:`RedoRecord` per write, built on demand since only recovery reads
them.  Replayed versions carry the *original* commit timestamps, so a
recovered site's version chains are indistinguishable from a site that
never crashed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..types import ObjectKey, ObjectValue, TransactionId
from .storage import MultiVersionStore


@dataclass(frozen=True)
class RedoRecord:
    """After-image of one committed write, as :meth:`RedoLog.records_after`
    returns it for catch-up replay.

    ``committed_at`` is the virtual time at which the owning transaction
    committed; replay installs versions with this original timestamp rather
    than a bogus default.
    """

    transaction_id: TransactionId
    key: ObjectKey
    value: ObjectValue
    index: int
    committed_at: float = 0.0


#: One committed transaction in the redo log: ``(transaction_id, index,
#: committed_at, writes)``, the writes as ``(key, value)`` pairs sorted by key.
_RedoEntry = Tuple[TransactionId, int, float, List[Tuple[ObjectKey, ObjectValue]]]


class RedoLog:
    """Per-site redo log of committed writes, used for crash-recovery catch-up."""

    def __init__(self) -> None:
        self._entries: List[_RedoEntry] = []
        self._indices: Set[int] = set()
        self._writes = 0

    def append_commit(
        self,
        transaction_id: TransactionId,
        writes: Dict[ObjectKey, ObjectValue],
        index: int,
        *,
        committed_at: float = 0.0,
    ) -> None:
        """Record the after-images of one committed transaction."""
        self._indices.add(index)
        sorted_writes = sorted(writes.items())
        self._entries.append((transaction_id, index, committed_at, sorted_writes))
        self._writes += len(sorted_writes)

    def records_after(
        self, index: int, *, up_to: Optional[int] = None
    ) -> List[RedoRecord]:
        """Return redo records with ``index < record.index`` (``<= up_to``).

        Records come in commit order, each commit's writes sorted by key.
        ``up_to`` bounds the suffix: a recovering site transfers only the
        donor's gap-free committed prefix and lets the broadcast layer deliver
        everything beyond it, so transfer and delivery never overlap.
        """
        return [
            RedoRecord(
                transaction_id=transaction_id,
                key=key,
                value=value,
                index=commit_index,
                committed_at=committed_at,
            )
            for transaction_id, commit_index, committed_at, writes in self._entries
            if commit_index > index and (up_to is None or commit_index <= up_to)
            for key, value in writes
        ]

    def covers_index(self, index: int) -> bool:
        """Whether a commit with ``index`` was appended to this log."""
        return index in self._indices

    def indices(self) -> Set[int]:
        """The set of committed indices recorded in this log."""
        return set(self._indices)

    def replay_into(
        self,
        store: MultiVersionStore,
        *,
        after_index: int,
        up_to: Optional[int] = None,
    ) -> int:
        """Replay committed writes newer than ``after_index`` into ``store``.

        Returns the number of writes replayed; replayed versions keep their
        original commit timestamps.  This is the bare state-transfer
        substrate (store contents only); the full recovery protocol —
        history/frontier transfer, scheduler invalidation, broadcast
        covered-marking — is
        :meth:`repro.core.replica.ReplicaManager.catch_up_from`, built on
        :meth:`records_after`.
        """
        replayed = 0
        for record in self.records_after(after_index, up_to=up_to):
            store.install(
                record.key,
                record.value,
                created_index=record.index,
                created_by=record.transaction_id,
                created_at=record.committed_at,
            )
            replayed += 1
        return replayed

    def __len__(self) -> int:
        """The number of committed writes recorded (not commits)."""
        return self._writes
