"""Per-site commit histories (paper Section 2.2).

A site's history lists the update transactions it committed, in local
commit order, with the definitive index each one committed at, the keys it
wrote and the keys it read.  Beside the records, one column holds the
evidence the 1-copy-serializability check replays: for every read key, the
``created_index`` of the version that read returned
(:func:`repro.verification.onecopy.check_one_copy_serializability`,
Theorem 4.2).
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

from ..errors import VerificationError
from ..types import ConflictClassId, ObjectKey, SiteId, TransactionId


class CommittedTransaction(NamedTuple):
    """One committed transaction as recorded in a site's history.

    ``message_id`` is the atomic-broadcast message that carried the request;
    state transfer uses it to tell a recovering site's broadcast endpoint
    which messages are already covered and must not be delivered again.
    ``read_keys`` are the keys this site's execution read from the store;
    a commit the site installed without executing it (a lazy remote write
    set, a state-transferred commit) has none.
    """

    transaction_id: TransactionId
    conflict_class: ConflictClassId
    global_index: int
    committed_at: float
    write_keys: Tuple[ObjectKey, ...] = ()
    read_keys: Tuple[ObjectKey, ...] = ()
    message_id: Optional[str] = None


class SiteHistory:
    """Commit history of one replica site, in local commit order."""

    def __init__(self, site_id: SiteId) -> None:
        self.site_id = site_id
        self._commits: List[CommittedTransaction] = []
        self._by_id: Dict[TransactionId, CommittedTransaction] = {}
        #: The version index each read returned: every commit's ``read_keys``
        #: in turn, in local commit order.
        self.read_versions = array("q")

    # --------------------------------------------------------------- recording
    def record_commit(
        self, committed: CommittedTransaction, read_versions: Iterable[int]
    ) -> None:
        """Append a committed transaction to the history.

        ``read_versions`` holds, in ``committed.read_keys`` order, the
        ``created_index`` of the version each read returned
        (``MultiVersionStore.INITIAL_INDEX`` for an initial or absent object).
        """
        if committed.transaction_id in self._by_id:
            raise VerificationError(
                f"{committed.transaction_id} committed twice at site {self.site_id}"
            )
        self._commits.append(committed)
        self._by_id[committed.transaction_id] = committed
        self.read_versions.extend(read_versions)

    # ---------------------------------------------------------------- queries
    def committed_transactions(self) -> List[CommittedTransaction]:
        """Return all committed transactions in local commit order."""
        return list(self._commits)

    def transaction_ids(self) -> List[TransactionId]:
        """Return committed transaction ids in local commit order."""
        return [commit.transaction_id for commit in self._commits]

    def get(self, transaction_id: TransactionId) -> Optional[CommittedTransaction]:
        """Return the record of ``transaction_id`` (or ``None``)."""
        return self._by_id.get(transaction_id)

    def global_indices(self) -> Set[int]:
        """Return the set of definitive indices committed at this site."""
        return {commit.global_index for commit in self._commits}

    def commits_in_index_range(
        self, after_index: int, up_to: int
    ) -> List[CommittedTransaction]:
        """Commits with ``after_index < global_index <= up_to``, index-ordered.

        State transfer walks the donor's history in definitive-index order so
        the recovering site installs versions in non-decreasing index order.
        """
        selected = [
            commit
            for commit in self._commits
            if after_index < commit.global_index <= up_to
        ]
        selected.sort(key=lambda commit: commit.global_index)
        return selected

    def __len__(self) -> int:
        return len(self._commits)

    def __contains__(self, transaction_id: TransactionId) -> bool:
        return transaction_id in self._by_id
