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
from array import array
from bisect import bisect_left, bisect_right
from typing import List, NamedTuple, Optional, Tuple

from ..errors import DatabaseError, UnknownObjectError
from ..types import ObjectKey, ObjectValue, TransactionId

#: Immutable value types handed out without copying (subclasses still copy).
_UNCOPIED_TYPES = frozenset({int, float, str, bool, type(None)})
#: Below every creation index, so the first version's check passes.
_BEFORE_ANY_INDEX = float("-inf")


class ObjectVersion(NamedTuple):
    """One committed version of a data object (an immutable named tuple).

    A :class:`VersionChain` keeps its versions as columns and builds this
    record only when asked for one.
    """

    key: ObjectKey
    value: ObjectValue
    created_index: int
    created_by: TransactionId
    created_at: float = 0.0


class VersionChain:
    """All committed versions of one object, ordered by creation index.

    The versions are four parallel columns, one entry per version: creation
    index (an ``array('q')``), value, creating transaction and commit time
    (doubles).  Reads bisect the index column and copy the value; only the
    accessors that return an :class:`ObjectVersion` build one.  A bisect
    over the array boxes an int on every probe: over 40 versions, a query's
    ``i.5`` probe takes 0.27 us against 0.21 us on a list (CPython 3.11,
    2-core x86), and in return no version keeps a boxed index.
    """

    __slots__ = ("key", "_created_indices", "_values", "_writers", "_commit_times")

    def __init__(self, key: ObjectKey) -> None:
        self.key = key
        #: Sorted, so ``visible_at`` can bisect (``bisect(key=)`` is 3.10+).
        self._created_indices = array("q")
        self._values: List[ObjectValue] = []
        self._writers: List[TransactionId] = []
        self._commit_times = array("d")

    def _record(self, position: int) -> ObjectVersion:
        return ObjectVersion(
            self.key,
            self._values[position],
            self._created_indices[position],
            self._writers[position],
            self._commit_times[position],
        )

    def visible_at(self, max_index: float) -> Optional[ObjectVersion]:
        """Return the version visible to a reader with index ``max_index``.

        The visible version is the one with the greatest ``created_index``
        not exceeding ``max_index`` (the paper's ``j = max(k), k <= i``).
        """
        position = bisect_right(self._created_indices, max_index)
        return self._record(position - 1) if position else None

    def writer_at(self, max_index: float) -> Optional[TransactionId]:
        """The ``created_by`` of the version visible at ``max_index`` (or ``None``)."""
        position = bisect_right(self._created_indices, max_index)
        return self._writers[position - 1] if position else None

    def read_latest(self) -> Tuple[ObjectValue, int]:
        """Return a deep copy of the latest value (an immutable scalar as is)
        and the index that created it."""
        if not self._values:
            raise UnknownObjectError(f"object {self.key!r} has no committed version")
        value = self._values[-1]
        if type(value) not in _UNCOPIED_TYPES:
            value = copy.deepcopy(value)
        return value, self._created_indices[-1]

    def read_at(self, max_index: float) -> ObjectValue:
        """Return a deep copy of the value visible at ``max_index`` (an
        immutable scalar as is)."""
        position = bisect_right(self._created_indices, max_index)
        if not position:
            raise UnknownObjectError(
                f"object {self.key!r} has no version visible at index {max_index!r}"
            )
        value = self._values[position - 1]
        return value if type(value) in _UNCOPIED_TYPES else copy.deepcopy(value)

    def append(self, version: ObjectVersion) -> None:
        """Append a new committed version (indices must be non-decreasing)."""
        if version.key != self.key:
            raise DatabaseError(
                f"version key {version.key!r} does not match chain key {self.key!r}"
            )
        self.add(version.value, version.created_index, version.created_by, version.created_at)

    def add(
        self,
        value: ObjectValue,
        created_index: int,
        created_by: TransactionId,
        created_at: float = 0.0,
    ) -> None:
        """Append a version given by its fields; see :meth:`append`."""
        indices = self._created_indices
        try:
            last = indices[-1]
        except IndexError:
            last = _BEFORE_ANY_INDEX
        # ``not >=`` also rejects a NaN index, which compares false both ways.
        if not created_index >= last:
            raise DatabaseError(
                "versions must be installed in non-decreasing index order: "
                f"{created_index!r} is not >= {last!r}"
            )
        indices.append(created_index)
        self._values.append(value)
        self._writers.append(created_by)
        self._commit_times.append(created_at)

    def prune_before(self, min_index: int) -> int:
        """Drop versions older than ``min_index``.

        Returns the number of versions removed.  Garbage collection never
        removes the last remaining version of an object.
        """
        indices = self._created_indices
        # The indices are sorted, so the versions older than ``min_index``
        # are a prefix.
        removed = min(bisect_left(indices, min_index), len(indices) - 1)
        if removed <= 0:
            return 0
        for column in (indices, self._values, self._writers, self._commit_times):
            del column[:removed]
        return removed

    def __len__(self) -> int:
        return len(self._values)
