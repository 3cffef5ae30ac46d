"""Stored procedures.

The paper assumes all data access goes through stored procedures (Section
2.2): one transaction corresponds to one stored procedure invocation, and
because procedures are predefined, their type (update transaction vs. query)
and their conflict class are known in advance.  This module implements the
procedure registry and the execution context handed to procedure bodies.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple, Optional, Union

from ..errors import DatabaseError, UnknownObjectError, UnknownProcedureError
from ..simulation.randomness import RandomStream
from ..types import ConflictClassId, ObjectKey, ObjectValue
from .storage import MultiVersionStore

#: A procedure body receives the execution context and the call parameters.
ProcedureBody = Callable[["TransactionContext", Dict[str, Any]], Any]

#: Duration model: either a constant (seconds) or a callable sampling from a
#: random stream given the call parameters.
DurationModel = Union[float, Callable[[Dict[str, Any], RandomStream], float]]


class TransactionContext:
    """Read/write interface available to a stored procedure body.

    Reads see the site's committed state (optionally at a snapshot index for
    queries) overlaid with the transaction's own buffered writes; writes go
    into the private workspace and are installed only at commit time.
    """

    def __init__(
        self,
        store: MultiVersionStore,
        *,
        snapshot_index: Optional[float] = None,
        read_only: bool = False,
    ) -> None:
        self._store = store
        self._snapshot_index = snapshot_index
        self._read_only = read_only
        self.workspace: Dict[ObjectKey, ObjectValue] = {}
        self.read_set: set = set()

    # ----------------------------------------------------------------- reads
    def read(self, key: ObjectKey) -> ObjectValue:
        """Read ``key``: own writes first, then the (snapshot) committed state."""
        self.read_set.add(key)
        if key in self.workspace:
            return self.workspace[key]
        if self._snapshot_index is not None:
            return self._store.read_version(key, self._snapshot_index)
        return self._store.read_latest(key)

    def read_or_default(self, key: ObjectKey, default: ObjectValue = None) -> ObjectValue:
        """Read ``key`` or return ``default`` when it does not exist."""
        try:
            return self.read(key)
        except UnknownObjectError:
            return default

    def exists(self, key: ObjectKey) -> bool:
        """Return whether ``key`` exists (in the workspace or the store)."""
        return key in self.workspace or self._store.exists(key)

    # ---------------------------------------------------------------- writes
    def write(self, key: ObjectKey, value: ObjectValue) -> None:
        """Buffer a write of ``key`` in the transaction workspace."""
        if self._read_only:
            raise DatabaseError("queries must not update data")
        self.workspace[key] = value

    def increment(self, key: ObjectKey, delta: Union[int, float] = 1) -> ObjectValue:
        """Read-modify-write convenience: add ``delta`` to a numeric object."""
        current = self.read_or_default(key, 0)
        if not isinstance(current, (int, float)):
            raise DatabaseError(f"cannot increment non-numeric object {key!r}")
        updated = current + delta
        self.write(key, updated)
        return updated


class StoredProcedure(NamedTuple):
    """A registered stored procedure.

    Attributes
    ----------
    name:
        Unique procedure name; clients invoke procedures by name.
    body:
        Python callable implementing the procedure logic.
    conflict_class:
        The conflict class all invocations of this procedure belong to
        (update transactions only).  May be a fixed class id or a callable
        deriving the class from the call parameters (e.g. one class per
        account-range partition).
    is_query:
        Read-only procedures are executed locally with a snapshot and never
        broadcast (Section 2.4 / Section 5).
    duration:
        Simulated execution time model (constant seconds or a sampler).
    """

    name: str
    body: ProcedureBody
    conflict_class: Union[ConflictClassId, Callable[[Dict[str, Any]], ConflictClassId], None] = None
    is_query: bool = False
    duration: DurationModel = 0.002

    def resolve_conflict_class(self, parameters: Dict[str, Any]) -> ConflictClassId:
        """Return the conflict class of an invocation with ``parameters``."""
        if self.conflict_class is None:
            if self.is_query:
                return "__query__"
            raise DatabaseError(
                f"update procedure {self.name!r} must declare a conflict class"
            )
        if callable(self.conflict_class):
            return self.conflict_class(parameters)
        return self.conflict_class

    def sample_duration(self, parameters: Dict[str, Any], stream: RandomStream) -> float:
        """Return the simulated execution time of one invocation."""
        if callable(self.duration):
            value = self.duration(parameters, stream)
        else:
            value = float(self.duration)
        return max(0.0, value)


class ProcedureRegistry:
    """Registry of stored procedures shared by every site of a cluster."""

    def __init__(self) -> None:
        self._procedures: Dict[str, StoredProcedure] = {}

    def register(self, procedure: StoredProcedure) -> StoredProcedure:
        """Register ``procedure``; names must be unique."""
        if procedure.name in self._procedures:
            raise DatabaseError(f"procedure {procedure.name!r} is already registered")
        self._procedures[procedure.name] = procedure
        return procedure

    def procedure(
        self,
        name: str,
        *,
        conflict_class: Union[ConflictClassId, Callable[[Dict[str, Any]], ConflictClassId], None] = None,
        is_query: bool = False,
        duration: DurationModel = 0.002,
    ) -> Callable[[ProcedureBody], ProcedureBody]:
        """Decorator form of :meth:`register`.

        Example::

            @registry.procedure("transfer", conflict_class="C_accounts")
            def transfer(ctx, params):
                ...
        """

        def decorator(body: ProcedureBody) -> ProcedureBody:
            self.register(
                StoredProcedure(
                    name=name,
                    body=body,
                    conflict_class=conflict_class,
                    is_query=is_query,
                    duration=duration,
                )
            )
            return body

        return decorator

    def get(self, name: str) -> StoredProcedure:
        """Return the procedure registered under ``name``."""
        try:
            return self._procedures[name]
        except KeyError:
            raise UnknownProcedureError(f"no stored procedure named {name!r}") from None

    def names(self) -> List[str]:
        """Return all registered procedure names (sorted)."""
        return sorted(self._procedures)

    def __contains__(self, name: str) -> bool:
        return name in self._procedures

    def __len__(self) -> int:
        return len(self._procedures)
