"""Versioned data objects.

The replicated database keeps, for every object, a chain of committed
versions tagged with the global index of the transaction that created them
(transactions are indexed by their TO-delivery order, Section 5 of the
paper).  Multi-versioning is what makes the snapshot-based query processing
of Section 5 possible: a query with index ``i.5`` reads, for each object of a
conflict class, the version created by the last transaction of that class
with index ``<= i``.
"""

from __future__ import annotations

import copy
from bisect import bisect_right
from typing import Iterable, List, NamedTuple, Optional

from ..errors import DatabaseError
from ..types import ObjectKey, ObjectValue, TransactionId

#: Immutable value types handed out without copying (subclasses still copy).
_UNCOPIED_TYPES = frozenset({int, float, str, bool, type(None)})


class ObjectVersion(NamedTuple):
    """One committed version of a data object (an immutable named tuple)."""

    key: ObjectKey
    value: ObjectValue
    created_index: int
    created_by: TransactionId
    created_at: float = 0.0

    def copy_value(self) -> ObjectValue:
        """Return a deep copy of the value (so callers cannot mutate history).

        Immutable scalars come back as they are: a deep copy of one is the
        same object anyway.
        """
        value = self.value
        if type(value) in _UNCOPIED_TYPES:
            return value
        return copy.deepcopy(value)


class VersionChain:
    """All committed versions of one object, ordered by creation index."""

    __slots__ = ("key", "versions", "_created_indices")

    def __init__(self, key: ObjectKey, versions: Iterable[ObjectVersion] = ()) -> None:
        self.key = key
        self.versions = list(versions)
        #: ``created_index`` of each entry of ``versions``, kept in step by the
        #: mutators below so ``visible_at`` can bisect (``bisect(key=)`` is 3.10+).
        self._created_indices = [version.created_index for version in self.versions]

    def latest(self) -> Optional[ObjectVersion]:
        """Return the most recent committed version, or ``None`` if none."""
        return self.versions[-1] if self.versions else None

    def visible_at(self, max_index: float) -> Optional[ObjectVersion]:
        """Return the version visible to a reader with index ``max_index``.

        The visible version is the one with the greatest ``created_index``
        not exceeding ``max_index`` (the paper's ``j = max(k), k <= i``).
        """
        position = bisect_right(self._created_indices, max_index)
        return self.versions[position - 1] if position else None

    def append(self, version: ObjectVersion) -> None:
        """Append a new committed version (indices must be non-decreasing)."""
        if version.key != self.key:
            raise DatabaseError(
                f"version key {version.key!r} does not match chain key {self.key!r}"
            )
        if self.versions and version.created_index < self.versions[-1].created_index:
            raise DatabaseError(
                "versions must be installed in non-decreasing index order: "
                f"{version.created_index} < {self.versions[-1].created_index}"
            )
        self.versions.append(version)
        self._created_indices.append(version.created_index)

    def prune_before(self, min_index: int, keep_at_least: int = 1) -> int:
        """Drop versions older than ``min_index``; keep at least ``keep_at_least``.

        Returns the number of versions removed.  Garbage collection never
        removes the last remaining version of an object.
        """
        if keep_at_least < 1:
            raise DatabaseError("keep_at_least must be >= 1")
        removable = [
            version for version in self.versions if version.created_index < min_index
        ]
        keep_from = max(0, len(self.versions) - keep_at_least)
        removable = removable[: max(0, min(len(removable), keep_from))]
        if not removable:
            return 0
        remove_set = {id(version) for version in removable}
        self.versions = [v for v in self.versions if id(v) not in remove_set]
        self._created_indices = [version.created_index for version in self.versions]
        return len(removable)

    def __len__(self) -> int:
        return len(self.versions)
