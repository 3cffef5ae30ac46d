"""Per-site commit histories (paper Section 2.2).

A site's history lists the update transactions it committed, in local
commit order, with the definitive index each one committed at, the keys it
wrote and the keys it read.  Beside them, one column holds the evidence the
1-copy-serializability check replays: for every read key, the
``created_index`` of the version that read returned
(:func:`repro.verification.onecopy.check_one_copy_serializability`,
Theorem 4.2).

A site keeps its history for the whole run, so the history is columns, one
entry per commit (a *row*), and :class:`CommittedTransaction` records are
built only on request.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from ..errors import VerificationError
from ..types import ConflictClassId, MessageId, ObjectKey, SiteId, TransactionId


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
    """Commit history of one replica site, in local commit order.

    Row ``r`` is the ``r``-th commit: ``ids[r]``, ``classes[r]``,
    ``indices[r]`` (its ``global_index``), ``committed_at[r]`` and
    ``message_ids[r]``.  Its write keys and read keys sit in one flat key
    list (:meth:`key_row`); a read set equal to the write set is stored
    once.  ``read_versions`` holds, for every row's read keys in turn, the
    version index each read returned.
    """

    def __init__(self, site_id: SiteId) -> None:
        self.site_id = site_id
        self.ids: List[TransactionId] = []
        self.classes: List[ConflictClassId] = []
        self.indices = array("q")
        self.committed_at = array("d")
        self.message_ids: List[Optional[MessageId]] = []
        #: The ``global_index`` of each committed transaction.
        self.index_of: Dict[TransactionId, int] = {}
        self.read_versions = array("q")
        self._keys: List[ObjectKey] = []
        #: Per row: where its write keys start and end in ``_keys``, and
        #: where its read keys end.  Its read keys follow its write keys,
        #: unless the read end lies before the write end: then they are the
        #: write keys.
        self._starts = array("q")
        self._write_ends = array("q")
        self._read_ends = array("q")

    # --------------------------------------------------------------- recording
    def append(
        self,
        transaction_id: TransactionId,
        conflict_class: ConflictClassId,
        global_index: int,
        committed_at: float,
        write_keys: Sequence[ObjectKey],
        read_keys: Sequence[ObjectKey],
        message_id: Optional[MessageId],
        read_versions: Iterable[int],
    ) -> None:
        """Append one commit, field by field.

        ``read_versions`` holds, in ``read_keys`` order, the
        ``created_index`` of the version each read returned
        (``MultiVersionStore.INITIAL_INDEX`` for an initial or absent
        object).  ``write_keys`` and ``read_keys`` are sequences of one type,
        so that equal sets compare equal and are stored once.
        """
        if transaction_id in self.index_of:
            raise VerificationError(
                f"{transaction_id} committed twice at site {self.site_id}"
            )
        self.ids.append(transaction_id)
        self.classes.append(conflict_class)
        self.indices.append(global_index)
        self.committed_at.append(committed_at)
        self.message_ids.append(message_id)
        self.index_of[transaction_id] = global_index
        keys = self._keys
        start = len(keys)
        keys.extend(write_keys)
        self._starts.append(start)
        self._write_ends.append(len(keys))
        if read_keys and read_keys == write_keys:
            self._read_ends.append(start)
        else:
            keys.extend(read_keys)
            self._read_ends.append(len(keys))
        self.read_versions.extend(read_versions)

    def record_commit(
        self, committed: CommittedTransaction, read_versions: Iterable[int]
    ) -> None:
        """Append a committed transaction given as a record; see :meth:`append`."""
        self.append(*committed, read_versions)

    # ---------------------------------------------------------------- queries
    def key_row(self, row: int) -> Tuple[List[ObjectKey], List[ObjectKey]]:
        """The keys row ``row`` wrote and the keys it read, in key order."""
        write_end, read_end = self._write_ends[row], self._read_ends[row]
        write_keys = self._keys[self._starts[row]:write_end]
        if read_end < write_end:
            return write_keys, write_keys
        return write_keys, self._keys[write_end:read_end]

    def write_count(self) -> int:
        """The number of committed writes recorded (not commits)."""
        return sum(self._write_ends) - sum(self._starts)

    def _record(self, row: int) -> CommittedTransaction:
        """Build the record of row ``row``."""
        write_keys, read_keys = self.key_row(row)
        return CommittedTransaction(
            self.ids[row],
            self.classes[row],
            self.indices[row],
            self.committed_at[row],
            tuple(write_keys),
            tuple(read_keys),
            self.message_ids[row],
        )

    def transaction_ids(self) -> List[TransactionId]:
        """Return committed transaction ids in local commit order."""
        return list(self.ids)

    def get(self, transaction_id: TransactionId) -> Optional[CommittedTransaction]:
        """Return the record of ``transaction_id`` (or ``None``)."""
        if transaction_id not in self.index_of:
            return None
        return self._record(self.ids.index(transaction_id))

    def global_indices(self) -> Set[int]:
        """Return the set of definitive indices committed at this site."""
        return set(self.indices)

    def commits_in_index_range(
        self, after_index: int, up_to: int
    ) -> List[CommittedTransaction]:
        """Commits with ``after_index < global_index <= up_to``, index-ordered.

        State transfer walks the donor's history in definitive-index order so
        the recovering site installs versions in non-decreasing index order.
        """
        indices = self.indices
        rows = [
            row for row, index in enumerate(indices) if after_index < index <= up_to
        ]
        rows.sort(key=indices.__getitem__)
        return [self._record(row) for row in rows]

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, transaction_id: TransactionId) -> bool:
        return transaction_id in self.index_of
