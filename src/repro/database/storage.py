"""In-memory multi-version object store (one per replica site).

The store only ever contains *committed* versions, kept as columns by each
object's :class:`~repro.database.objects.VersionChain`.  Executing transactions
buffer their writes in a private workspace (see
:mod:`repro.core.execution`); the workspace is installed atomically at commit
time, or simply discarded on abort; the discard is the whole undo.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..errors import UnknownObjectError
from ..types import ObjectKey, ObjectValue, TransactionId
from .objects import ObjectVersion, VersionChain


class StoreStats:
    """Counters maintained by the store."""

    __slots__ = ("reads", "writes", "snapshot_reads", "versions_pruned")

    def __init__(self) -> None:
        self.reads = self.writes = self.snapshot_reads = self.versions_pruned = 0


class MultiVersionStore:
    """Dictionary of version chains keyed by object key."""

    #: Index used for versions loaded before any transaction ran.
    INITIAL_INDEX = -1

    def __init__(self) -> None:
        self._chains: Dict[ObjectKey, VersionChain] = {}
        self.stats = StoreStats()

    # ----------------------------------------------------------------- setup
    def load(self, key: ObjectKey, value: ObjectValue) -> None:
        """Install an initial version of ``key`` (index ``INITIAL_INDEX``)."""
        chain = self._chains.get(key)
        if chain is None:
            chain = self._chains[key] = VersionChain(key)
        chain.add(value, self.INITIAL_INDEX, "__initial__")

    def load_many(self, items: Dict[ObjectKey, ObjectValue]) -> None:
        """Install initial versions for every ``key: value`` pair."""
        for key, value in items.items():
            self.load(key, value)

    # ----------------------------------------------------------------- reads
    def exists(self, key: ObjectKey) -> bool:
        """Return whether the object exists (has at least one version)."""
        chain = self._chains.get(key)
        return chain is not None and len(chain) > 0

    def keys(self) -> List[ObjectKey]:
        """Return all object keys (sorted for determinism)."""
        return sorted(self._chains)

    def read_latest(self, key: ObjectKey) -> ObjectValue:
        """Return a copy of the latest committed value of ``key``."""
        self.stats.reads += 1
        return self._chain(key).read_latest()

    def read_version(self, key: ObjectKey, max_index: float) -> ObjectValue:
        """Return a copy of the value of ``key`` visible at ``max_index``.

        This is the snapshot read of Section 5: the version created by the
        transaction with the greatest index ``<= max_index``.
        """
        self.stats.snapshot_reads += 1
        return self._chain(key).read_at(max_index)

    def version_at(self, key: ObjectKey, max_index: float) -> Optional[ObjectVersion]:
        """Return the :class:`ObjectVersion` of ``key`` visible at ``max_index``.

        The record behind :meth:`read_version`, built on request, without
        copying the value or counting a snapshot read (``None`` when there
        is none).
        """
        chain = self._chains.get(key)
        return chain.visible_at(max_index) if chain else None

    def writer_at(self, key: ObjectKey, max_index: float) -> Optional[TransactionId]:
        """The ``created_by`` of :meth:`version_at`'s record, without building it."""
        chain = self._chains.get(key)
        return chain.writer_at(max_index) if chain else None

    def version_count(self, key: ObjectKey) -> int:
        """Number of committed versions currently retained for ``key``."""
        chain = self._chains.get(key)
        return len(chain) if chain else 0

    # ---------------------------------------------------------------- writes
    def install(
        self,
        key: ObjectKey,
        value: ObjectValue,
        *,
        created_index: int,
        created_by: TransactionId,
        created_at: float = 0.0,
    ) -> None:
        """Install a new committed version of ``key``."""
        self.stats.writes += 1
        chain = self._chains.get(key)
        if chain is None:
            chain = self._chains[key] = VersionChain(key)
        chain.add(value, created_index, created_by, created_at)

    # ------------------------------------------------------------ maintenance
    def prune(self, min_index: int, *, keep_at_least: int = 1) -> int:
        """Garbage-collect versions older than ``min_index`` on every chain."""
        removed = 0
        for chain in self._chains.values():
            removed += chain.prune_before(min_index, keep_at_least=keep_at_least)
        self.stats.versions_pruned += removed
        return removed

    # ---------------------------------------------------------------- export
    def dump_latest(self, keys: Optional[Iterable[ObjectKey]] = None) -> Dict[ObjectKey, ObjectValue]:
        """Return ``{key: latest value}`` for ``keys`` (default: every key).

        Used by the verification layer to compare replica contents and by
        examples to display the database state.
        """
        selected = list(keys) if keys is not None else self.keys()
        result: Dict[ObjectKey, ObjectValue] = {}
        for key in selected:
            chain = self._chain(key)
            if len(chain):
                result[key] = chain.read_latest()
        return result

    # -------------------------------------------------------------- internal
    def _chain(self, key: ObjectKey) -> VersionChain:
        chain = self._chains.get(key)
        if chain is None:
            raise UnknownObjectError(f"object {key!r} does not exist")
        return chain
