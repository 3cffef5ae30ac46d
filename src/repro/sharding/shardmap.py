"""Shard map: assignment of conflict classes to shards.

The paper partitions the database into disjoint conflict classes and shows
that transactions of different classes never conflict (Section 2.3).  The
shard map exploits exactly this property: it statically assigns every
conflict class to one shard — an independent broadcast group + replica set —
so that each shard sequences only the transactions of its own classes.
Because no update transaction ever spans two classes, and hence never spans
two shards, the per-shard definitive total orders compose into a
serializable global execution without any cross-shard coordination.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from ..database.conflict import ConflictClassMap
from ..errors import ShardingError
from ..types import ConflictClassId, ObjectKey, ShardId


class ShardMap:
    """Static assignment of conflict classes to shards.

    Contract
    --------
    * Every conflict class is owned by exactly one shard (:meth:`assign`
      rejects re-assignment); :class:`~repro.sharding.cluster.ShardedCluster`
      additionally validates that every class of the global conflict map is
      assigned to a configured shard.
    * Keys route through their owning class
      (:meth:`shard_of_key` via the
      :class:`~repro.database.conflict.ConflictClassMap`), so a key's shard
      is always the shard of the single class allowed to update it — the
      property that makes per-shard total orders compose into a globally
      serializable execution.
    * The map is immutable while the system runs (dynamic rebalancing is a
      ROADMAP item); :meth:`contiguous` keeps classes a multi-class query
      typically scans together on few shards.
    """

    def __init__(self) -> None:
        self._shard_of_class: Dict[ConflictClassId, ShardId] = {}
        self._classes_of_shard: Dict[ShardId, List[ConflictClassId]] = {}

    # ---------------------------------------------------------- construction
    def assign(self, class_id: ConflictClassId, shard_id: ShardId) -> None:
        """Assign ``class_id`` to ``shard_id`` (each class has one owner)."""
        if class_id in self._shard_of_class:
            raise ShardingError(
                f"conflict class {class_id!r} is already assigned to shard "
                f"{self._shard_of_class[class_id]!r}"
            )
        self._shard_of_class[class_id] = shard_id
        self._classes_of_shard.setdefault(shard_id, []).append(class_id)

    @classmethod
    def contiguous(
        cls, class_ids: Sequence[ConflictClassId], shard_ids: Sequence[ShardId]
    ) -> "ShardMap":
        """Assign classes to shards in contiguous equal-sized blocks.

        With 6 classes and 2 shards, classes 0-2 land on the first shard and
        classes 3-5 on the second.  The block layout keeps the classes a
        multi-class query typically scans together (neighbouring partitions)
        on few shards.
        """
        if not shard_ids:
            raise ShardingError("at least one shard id is required")
        if not class_ids:
            raise ShardingError("at least one conflict class is required")
        shard_map = cls()
        per_shard = (len(class_ids) + len(shard_ids) - 1) // len(shard_ids)
        for index, class_id in enumerate(class_ids):
            shard_map.assign(class_id, shard_ids[min(index // per_shard, len(shard_ids) - 1)])
        return shard_map

    # --------------------------------------------------------------- lookups
    def shard_of_class(self, class_id: ConflictClassId) -> ShardId:
        """Return the shard owning ``class_id``."""
        try:
            return self._shard_of_class[class_id]
        except KeyError:
            raise ShardingError(
                f"conflict class {class_id!r} is not assigned to any shard"
            ) from None

    def classes_of_shard(self, shard_id: ShardId) -> List[ConflictClassId]:
        """Return the conflict classes owned by ``shard_id`` (sorted)."""
        return sorted(self._classes_of_shard.get(shard_id, []))

    def shard_of_key(
        self, key: ObjectKey, conflict_map: ConflictClassMap
    ) -> Optional[ShardId]:
        """Return the shard owning ``key`` (via its conflict class)."""
        class_id = conflict_map.class_of_key(key)
        if class_id is None:
            return None
        return self._shard_of_class.get(class_id)

    def shard_ids(self) -> List[ShardId]:
        """Return all shards that own at least one class (sorted)."""
        return sorted(self._classes_of_shard)

    def class_ids(self) -> List[ConflictClassId]:
        """Return all assigned conflict classes (sorted)."""
        return sorted(self._shard_of_class)

    def split_by_shard(
        self, class_ids: Iterable[ConflictClassId]
    ) -> Dict[ShardId, List[ConflictClassId]]:
        """Group ``class_ids`` by owning shard (used for query fan-out)."""
        grouped: Dict[ShardId, List[ConflictClassId]] = {}
        for class_id in class_ids:
            grouped.setdefault(self.shard_of_class(class_id), []).append(class_id)
        return {shard_id: sorted(classes) for shard_id, classes in grouped.items()}

    def __contains__(self, class_id: ConflictClassId) -> bool:
        return class_id in self._shard_of_class

    def __len__(self) -> int:
        return len(self._shard_of_class)
