"""Conservative (non-optimistic) processing baseline.

The baseline the paper compares against conceptually: transactions are only
handed to the transaction manager once their definitive total order is known,
so execution starts *after* the ordering phase instead of overlapping with
it.  The baseline reuses the whole OTP stack, ordering protocol included —
the only difference is that the broadcast delivers messages tentatively and
definitively at the same instant (``opt_deliver_on_receipt=False``, see
:mod:`repro.broadcast.optimistic`).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Optional

from ..core.cluster import ReplicatedDatabase
from ..core.config import BROADCAST_CONSERVATIVE, BROADCAST_OPTIMISTIC, ClusterConfig
from ..database.conflict import ConflictClassMap
from ..database.procedures import ProcedureRegistry
from ..types import ObjectKey, ObjectValue


def conservative_config(base: Optional[ClusterConfig] = None, **overrides: Any) -> ClusterConfig:
    """Return a copy of ``base`` configured for conservative processing."""
    return replace(base or ClusterConfig(), broadcast=BROADCAST_CONSERVATIVE, **overrides)


def optimistic_config(base: Optional[ClusterConfig] = None, **overrides: Any) -> ClusterConfig:
    """Return a copy of ``base`` configured for optimistic (OTP) processing."""
    return replace(base or ClusterConfig(), broadcast=BROADCAST_OPTIMISTIC, **overrides)


def build_conservative_cluster(
    config: ClusterConfig,
    registry: ProcedureRegistry,
    *,
    conflict_map: Optional[ConflictClassMap] = None,
    initial_data: Optional[Dict[ObjectKey, ObjectValue]] = None,
) -> ReplicatedDatabase:
    """Build a cluster that processes transactions conservatively.

    The returned cluster has exactly the same public API as the optimistic
    one, which is what the overlap benchmark (claim C1) relies on.
    """
    return ReplicatedDatabase(
        conservative_config(config),
        registry,
        conflict_map=conflict_map,
        initial_data=initial_data,
    )
