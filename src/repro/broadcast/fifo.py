"""FIFO broadcast over the transport's reliable multicast.

Guarantees that messages from the same sender are delivered in the order
they were broadcast.  The OTP architecture itself does not require FIFO
order (the atomic broadcast provides a total order), but the lazy-replication
baseline uses FIFO channels to propagate update streams, and the layer is a
natural part of a group-communication substrate.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple

from ..network.message import Envelope
from ..network.transport import NetworkTransport
from ..simulation.kernel import SimulationKernel
from ..types import MessageId, SiteId

#: Envelope kind used by the FIFO broadcast layer.
FIFO_KIND = "fifobcast.data"


class FifoPayload(NamedTuple):
    """Wire format of a FIFO-broadcast message."""

    fifo_id: MessageId
    origin: SiteId
    sequence: int
    content: Any


#: Listener invoked with ``(fifo_id, origin, content)`` on delivery.
FifoDeliveryListener = Callable[[MessageId, SiteId, Any], None]


class FifoBroadcast:
    """Per-site endpoint providing per-sender FIFO delivery order."""

    def __init__(
        self, kernel: SimulationKernel, transport: NetworkTransport, site_id: SiteId
    ) -> None:
        self.kernel = kernel
        self.transport = transport
        self.site_id = site_id
        self._next_send_sequence = 1
        self._next_expected: Dict[SiteId, int] = {}
        self._pending: Dict[SiteId, Dict[int, FifoPayload]] = {}
        self._listeners: List[FifoDeliveryListener] = []
        self.delivery_log: List[MessageId] = []

    # ------------------------------------------------------------------- api
    def add_listener(self, listener: FifoDeliveryListener) -> None:
        """Register a delivery callback ``(fifo_id, origin, content)``."""
        self._listeners.append(listener)

    def broadcast(self, content: Any) -> MessageId:
        """Broadcast ``content`` with FIFO ordering relative to this sender."""
        fifo_id = f"fifo:{self.site_id}:{next(self.kernel.serials['fifo'])}"
        payload = FifoPayload(
            fifo_id=fifo_id,
            origin=self.site_id,
            sequence=self._next_send_sequence,
            content=content,
        )
        self._next_send_sequence += 1
        self.transport.multicast(self.site_id, payload, kind=FIFO_KIND)
        return fifo_id

    def on_envelope(self, envelope: Envelope) -> bool:
        """Process an incoming envelope; returns True if it belonged here."""
        payload = envelope.payload
        if not isinstance(payload, FifoPayload):
            return False
        sender = payload.origin
        expected = self._next_expected.setdefault(sender, 1)
        buffered = self._pending.setdefault(sender, {})
        buffered[payload.sequence] = payload
        while expected in buffered:
            ready = buffered.pop(expected)
            expected += 1
            self._deliver(ready)
        self._next_expected[sender] = expected
        return True

    # -------------------------------------------------------------- internal
    def _deliver(self, payload: FifoPayload) -> None:
        self.delivery_log.append(payload.fifo_id)
        for listener in self._listeners:
            listener(payload.fifo_id, payload.origin, payload.content)
