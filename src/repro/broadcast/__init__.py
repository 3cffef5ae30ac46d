"""Group-communication substrate: the atomic broadcast with optimistic (or,
as a delivery policy, conservative) delivery, plus the spontaneous-order
measurement.  Reliable dissemination is the transport's own guarantee (see
:class:`~repro.network.transport.NetworkTransport`)."""

from .batching import (
    Batch,
    BatchingConfig,
    BatchingEndpoint,
    BatchMember,
    unwrap_endpoint,
)
from .interfaces import (
    AtomicBroadcastEndpoint,
    BroadcastMessage,
    BroadcastStats,
    DeliveryListener,
    next_broadcast_id,
)
from .optimistic import (
    OPTIMISTIC_ANNOUNCE_KIND,
    OPTIMISTIC_DATA_KIND,
    OPTIMISTIC_ORDER_KIND,
    OptimisticAtomicBroadcast,
)
from .spontaneous import (
    PROBE_KIND,
    OrderAgreementReport,
    PeriodicMulticastSource,
    ProbeMessage,
    order_agreement,
    receive_sequences,
    tentative_vs_definitive_mismatch,
)

__all__ = [
    "Batch",
    "BatchingConfig",
    "BatchingEndpoint",
    "BatchMember",
    "unwrap_endpoint",
    "AtomicBroadcastEndpoint",
    "BroadcastMessage",
    "BroadcastStats",
    "DeliveryListener",
    "next_broadcast_id",
    "OptimisticAtomicBroadcast",
    "OPTIMISTIC_DATA_KIND",
    "OPTIMISTIC_ORDER_KIND",
    "OPTIMISTIC_ANNOUNCE_KIND",
    "PeriodicMulticastSource",
    "ProbeMessage",
    "PROBE_KIND",
    "OrderAgreementReport",
    "order_agreement",
    "receive_sequences",
    "tentative_vs_definitive_mismatch",
]
