"""Exception hierarchy for the repro package.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can distinguish library failures from programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SimulationError(ReproError):
    """Raised when the simulation kernel is used incorrectly."""


class ClockError(SimulationError):
    """Raised when an event is scheduled in the past or the clock misused."""


class NetworkError(ReproError):
    """Raised for invalid network configuration or usage."""


class UnknownSiteError(NetworkError):
    """Raised when a message is addressed to a site that does not exist."""


class BroadcastError(ReproError):
    """Raised by broadcast protocols on invalid usage."""


class DatabaseError(ReproError):
    """Raised by the database substrate."""


class UnknownObjectError(DatabaseError):
    """Raised when a data object does not exist in the store."""


class UnknownProcedureError(DatabaseError):
    """Raised when a stored procedure name is not registered."""


class TransactionError(DatabaseError):
    """Raised on an invalid transaction state transition."""


class ConflictClassError(DatabaseError):
    """Raised when conflict classes are configured or used incorrectly."""


class SnapshotError(DatabaseError):
    """Raised when a consistent snapshot cannot be produced."""


class SchedulerError(ReproError):
    """Raised by the OTP scheduler (serialization / correctness check)."""


class ReplicationError(ReproError):
    """Raised by replica managers and cluster facades."""


class ShardingError(ReproError):
    """Raised by the sharding subsystem (shard maps, routers, facades)."""


class WorkloadError(ReproError):
    """Raised for invalid workload specifications."""


class ChaosError(ReproError):
    """Raised by the fault-injection subsystem (plans, orchestrators)."""


class VerificationError(ReproError):
    """Raised when a correctness property is found to be violated."""
