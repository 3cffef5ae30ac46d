"""Snapshot management for queries (paper Section 5).

Queries are executed locally and must not be ordered through the atomic
broadcast, yet they must not create serialization orders that contradict the
definitive total order at other sites.  The paper solves this with
versioned data and query indices: transactions are indexed by TO-delivery
order; a query starting after transaction ``T_i`` was the last processed
TO-delivered transaction receives the index ``i.5`` and, for every conflict
class it touches, reads the versions created by the last transaction of that
class with index ``<= i``.

Because the multi-version store tags every committed version with the global
index of the creating transaction, a snapshot read at ``i.5`` is simply a
versioned read bounded by that index.  The :class:`SnapshotManager` assigns
query indices and hands out read-only views.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Set

from ..errors import SnapshotError
from ..types import ObjectKey, ObjectValue
from .storage import MultiVersionStore


class QuerySnapshot(NamedTuple):
    """A consistent read-only view of the database at index ``query_index``."""

    query_index: float
    store: MultiVersionStore

    def read(self, key: ObjectKey) -> ObjectValue:
        """Read ``key`` as of this snapshot."""
        return self.store.read_version(key, self.query_index)


class SnapshotManager:
    """Assigns query indices and produces consistent snapshots.

    The manager tracks the index of the last *processed* TO-delivered
    transaction (i.e. the last transaction whose commit installed versions),
    which is the ``i`` of the paper's ``i.5`` query index.
    """

    def __init__(self, store: MultiVersionStore) -> None:
        self._store = store
        self._last_processed_index: int = MultiVersionStore.INITIAL_INDEX
        self._pending_indices: Set[int] = set()
        self.snapshots_taken = 0

    # ----------------------------------------------------------------- state
    @property
    def last_processed_index(self) -> int:
        """Largest index ``i`` such that every transaction ``<= i`` committed.

        Commits of *different* conflict classes may complete out of
        definitive order (a later-ordered transaction of another class can
        finish executing first), so the frontier advances only once the
        prefix is gap-free.  This is what makes a query snapshot at ``i.5``
        stable: every version with index ``<= i`` is already installed when
        the query starts, and everything installed later has index ``> i``.
        """
        return self._last_processed_index

    def advance(self, committed_index: int) -> None:
        """Record that the transaction with ``committed_index`` has committed.

        The frontier only moves past an index once every smaller index has
        committed too; out-of-order commits are parked until the gap fills.
        Replaying an index at or below the frontier is harmless (idempotent
        recovery replays).
        """
        if committed_index <= self._last_processed_index:
            return
        if committed_index == self._last_processed_index + 1 and not self._pending_indices:
            # The common in-order commit: nothing is parked behind it.
            self._last_processed_index = committed_index
            return
        self._pending_indices.add(committed_index)
        while self._last_processed_index + 1 in self._pending_indices:
            self._last_processed_index += 1
            self._pending_indices.discard(self._last_processed_index)

    def force_frontier(self, index: int) -> None:
        """Advance the frontier directly to ``index`` (crash recovery only).

        A recovering site that completed a state transfer holds every commit
        of the donor's gap-free prefix, including indices the donor observed
        as ordered no-ops (duplicate deliveries, gap fills) that leave no
        trace in any history.  Rebuilding the frontier by replaying
        :meth:`advance` over history indices alone would stall below such
        holes, so state transfer forces the frontier to the donor's value.
        """
        if index <= self._last_processed_index:
            return
        self._last_processed_index = index
        self._pending_indices = {
            pending for pending in self._pending_indices if pending > index
        }
        while self._last_processed_index + 1 in self._pending_indices:
            self._last_processed_index += 1
            self._pending_indices.discard(self._last_processed_index)

    # ------------------------------------------------------------- snapshots
    def next_query_index(self) -> float:
        """Return the index a query starting now receives (``i + 0.5``)."""
        return self._last_processed_index + 0.5

    def snapshot(self, query_index: Optional[float] = None) -> QuerySnapshot:
        """Return a consistent snapshot for a query.

        Without an explicit ``query_index`` the current ``i.5`` index is
        used.  Supplying an index older than data still retained by the store
        is allowed; supplying a future index is rejected because it would let
        a query observe transactions that have not committed yet.
        """
        self.snapshots_taken += 1
        if query_index is None:
            query_index = self.next_query_index()
        if query_index > self._last_processed_index + 0.5:
            raise SnapshotError(
                f"query index {query_index!r} is in the future "
                f"(last processed index is {self._last_processed_index})"
            )
        return QuerySnapshot(query_index=query_index, store=self._store)

    #: How many definitive indices below the last processed one a snapshot
    #: may still read after :meth:`garbage_collect`.
    GC_KEEP_LAST = 8

    def garbage_collect(self) -> int:
        """Prune versions older than ``last_processed_index - GC_KEEP_LAST``.

        Returns the number of versions removed.  At least one version per
        object is always retained.
        """
        horizon = self._last_processed_index - self.GC_KEEP_LAST
        if horizon <= MultiVersionStore.INITIAL_INDEX:
            return 0
        return self._store.prune(horizon)
