"""Shared type aliases used across the repro package."""

from __future__ import annotations

from typing import Union

#: Identifier of a replica site (e.g. ``"N1"``).
SiteId = str

#: Identifier of a transaction: a serial of the kernel's ``"transaction"``
#: family, drawn by the origin site.  Its name, ``T:<origin>:<serial>``, is
#: built only for output (``repro.database.transaction.transaction_name``).
TransactionId = int

#: Identifier of a broadcast message: a serial of the kernel's
#: ``"broadcast"`` family (named ``m:<origin>:<serial>``), or, for the
#: no-op filling a dead definitive position, a negative number
#: (``repro.broadcast.interfaces.noop_fill_id``).
MessageId = int

#: Identifier of a network envelope (``<sender>#<serial>``).
EnvelopeId = str

#: Identifier of a conflict class (e.g. ``"C_accounts_0"``).
ConflictClassId = str

#: Identifier of a shard — an independent broadcast group + replica set
#: owning a subset of the conflict classes (e.g. ``"S1"``).
ShardId = str

#: Key of a data object in the replicated database.
ObjectKey = str

#: Values stored in the database; kept deliberately simple (JSON-like scalars
#: and containers) so that deep-copying snapshots stays cheap and safe.
ObjectValue = Union[None, bool, int, float, str, list, dict, tuple]
