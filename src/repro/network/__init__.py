"""Simulated network substrate (asynchronous, reliable, crash-recovery).

Replaces the paper's 10 Mbit/s Ethernet + IP multicast testbed with a
parameterised latency model whose key knob — the per-receiver jitter — drives
the probability of spontaneous total order (paper Figure 1).
"""

from .latency import (
    ConstantLatency,
    GeoLatency,
    GeoTopology,
    LanMulticastLatency,
    LatencyModel,
    LinkProfile,
    UniformLatency,
)
from .message import DeliveryRecord, Envelope, next_envelope_id
from .partitions import PartitionController
from .transport import NetworkTransport, ReceiveHandler, TransportStats

__all__ = [
    "ConstantLatency",
    "GeoLatency",
    "GeoTopology",
    "LanMulticastLatency",
    "LatencyModel",
    "LinkProfile",
    "UniformLatency",
    "DeliveryRecord",
    "Envelope",
    "next_envelope_id",
    "PartitionController",
    "NetworkTransport",
    "ReceiveHandler",
    "TransportStats",
]
