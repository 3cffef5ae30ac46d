"""Conflict classes and class queues (paper Section 2.3, Figure 2).

Concurrency control in the paper is deliberately coarse: every update
transaction belongs to exactly one of several disjoint conflict classes, each
class owns a partition of the database, and per class there is a FIFO *class
queue*.  Transactions of the same class are executed sequentially in queue
order; transactions of different classes never conflict and run concurrently.

The :class:`ClassQueue` implements exactly the operations that the OTP
modules of Section 3.3 need, including the CC10 reordering step that moves a
TO-delivered transaction in front of all still-pending ones.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from ..errors import ConflictClassError
from ..types import ConflictClassId, ObjectKey, TransactionId
from .transaction import DeliveryState, Transaction


class ConflictClass(NamedTuple):
    """Descriptor of one conflict class.

    ``key_prefixes`` describes the database partition owned by the class:
    every object key starting with one of the prefixes belongs to it.  The
    mapping is used by snapshot queries (which may touch several classes) and
    by the verification layer; update transactions themselves are assigned to
    a class statically through their stored procedure.
    """

    class_id: ConflictClassId
    key_prefixes: Tuple[str, ...] = ()
    description: str = ""


class ConflictClassMap:
    """Registry of conflict classes and of the key partition they own."""

    def __init__(self) -> None:
        self._classes: Dict[ConflictClassId, ConflictClass] = {}
        #: ``class_of_key`` answers, resolved once per key and dropped
        #: whenever a class is defined (a key may gain an owner).
        self._owner_of_key: Dict[ObjectKey, Optional[ConflictClassId]] = {}
        #: Every defined key prefix's class, and the distinct prefix lengths
        #: in ascending order: a key's first resolution probes the prefix
        #: index once per length instead of testing every class.
        self._class_of_prefix: Dict[str, ConflictClassId] = {}
        self._prefix_lengths: Tuple[int, ...] = ()

    def define(
        self,
        class_id: ConflictClassId,
        *,
        key_prefixes: Iterable[str] = (),
        description: str = "",
    ) -> ConflictClass:
        """Define a conflict class owning the keys matching ``key_prefixes``.

        Partitions must be disjoint (paper Section 2.3): a prefix that is a
        prefix of — or extends — a prefix of an already-defined class would
        make some keys belong to two classes, so it is rejected.
        """
        if class_id in self._classes:
            raise ConflictClassError(f"conflict class {class_id!r} already defined")
        prefixes = tuple(key_prefixes)
        for existing in self._classes.values():
            for theirs in existing.key_prefixes:
                for ours in prefixes:
                    if ours.startswith(theirs) or theirs.startswith(ours):
                        raise ConflictClassError(
                            f"key prefix {ours!r} of class {class_id!r} overlaps "
                            f"prefix {theirs!r} of class {existing.class_id!r}; "
                            "conflict classes must own disjoint partitions"
                        )
        conflict_class = ConflictClass(
            class_id=class_id,
            key_prefixes=prefixes,
            description=description,
        )
        self._classes[class_id] = conflict_class
        self._class_of_prefix.update(dict.fromkeys(prefixes, class_id))
        self._prefix_lengths = tuple(sorted({len(prefix) for prefix in self._class_of_prefix}))
        self._owner_of_key.clear()
        return conflict_class

    def get(self, class_id: ConflictClassId) -> ConflictClass:
        """Return the class descriptor for ``class_id``."""
        try:
            return self._classes[class_id]
        except KeyError:
            raise ConflictClassError(f"unknown conflict class {class_id!r}") from None

    def class_ids(self) -> List[ConflictClassId]:
        """Return all defined class ids (sorted)."""
        return sorted(self._classes)

    def class_of_key(self, key: ObjectKey) -> Optional[ConflictClassId]:
        """Return the class owning ``key`` or ``None`` if no class does."""
        owners = self._owner_of_key
        if key in owners:
            return owners[key]
        # Partitions are disjoint (``define`` rejects overlaps), so at most
        # one prefix of ``key`` is defined.
        class_of_prefix = self._class_of_prefix
        owner = None
        for length in self._prefix_lengths:
            owner = class_of_prefix.get(key[:length])
            if owner is not None:
                break
        owners[key] = owner
        return owner

    def __contains__(self, class_id: ConflictClassId) -> bool:
        return class_id in self._classes

    def __len__(self) -> int:
        return len(self._classes)


class ClassQueue:
    """FIFO queue of the transactions of one conflict class at one site."""

    def __init__(self, class_id: ConflictClassId) -> None:
        self.class_id = class_id
        self._entries: List[Transaction] = []
        #: Counters used by metrics and tests.
        self.total_appended = 0
        self.total_committed = 0
        self.total_reorderings = 0

    # ------------------------------------------------------------- accessors
    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Transaction]:
        return iter(self._entries)

    def __contains__(self, transaction: Transaction) -> bool:
        return transaction in self._entries

    def first(self) -> Optional[Transaction]:
        """Return the transaction at the head of the queue (or ``None``)."""
        return self._entries[0] if self._entries else None

    def position_of(self, transaction: Transaction) -> int:
        """Return the 0-based position of ``transaction`` in the queue."""
        try:
            return self._entries.index(transaction)
        except ValueError:
            raise ConflictClassError(
                f"transaction {transaction.transaction_id} is not queued in class "
                f"{self.class_id}"
            ) from None

    def find(self, transaction_id: TransactionId) -> Optional[Transaction]:
        """Return the queued transaction with ``transaction_id`` (or ``None``)."""
        for entry in self._entries:
            if entry.transaction_id == transaction_id:
                return entry
        return None

    # ------------------------------------------------------------ operations
    def append(self, transaction: Transaction) -> None:
        """Append a newly Opt-delivered transaction (S1)."""
        if transaction.conflict_class != self.class_id:
            raise ConflictClassError(
                f"transaction {transaction.transaction_id} belongs to class "
                f"{transaction.conflict_class!r}, not {self.class_id!r}"
            )
        if transaction in self._entries:
            raise ConflictClassError(
                f"transaction {transaction.transaction_id} is already queued in {self.class_id}"
            )
        self._entries.append(transaction)
        self.total_appended += 1

    def remove(self, transaction: Transaction) -> None:
        """Remove a committed transaction; it must be at the head (E2, CC3)."""
        if not self._entries or self._entries[0] is not transaction:
            raise ConflictClassError(
                f"only the first transaction of {self.class_id} can be removed; "
                f"got transaction {transaction.transaction_id}"
            )
        self._entries.pop(0)
        self.total_committed += 1

    def reschedule_before_pending(self, transaction: Transaction) -> int:
        """CC10: move ``transaction`` before the first pending transaction.

        The protocol guarantees that all committable transactions precede all
        pending ones, so the target position is directly after the last
        committable entry (excluding ``transaction`` itself).  Returns the new
        position of ``transaction``.
        """
        original = self.position_of(transaction)
        del self._entries[original]
        target = len(self._entries)
        for index, entry in enumerate(self._entries):
            if entry.delivery_state is DeliveryState.PENDING:
                target = index
                break
        self._entries.insert(target, transaction)
        if target != original:
            self.total_reorderings += 1
        return target

    def committable_before_pending(self) -> bool:
        """Invariant check: no pending transaction precedes a committable one."""
        seen_pending = False
        for entry in self._entries:
            if entry.delivery_state is DeliveryState.PENDING:
                seen_pending = True
            elif seen_pending:
                return False
        return True
