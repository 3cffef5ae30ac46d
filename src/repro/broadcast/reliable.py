"""Reliable broadcast.

Provides the dissemination layer used by the atomic broadcast protocols: a
message broadcast by any site is eventually delivered exactly once by every
site, even if the sender crashes while multicasting (the first correct
receiver echoes the message).
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from ..network.message import Envelope
from ..network.transport import NetworkTransport
from ..simulation.kernel import SimulationKernel
from ..types import MessageId, SiteId

#: Envelope kind used by the reliable broadcast layer.
RELIABLE_KIND = "rbcast.data"

_RB_COUNTER = itertools.count(1)


class ReliablePayload(NamedTuple):
    """Wire format of a reliable-broadcast message."""

    rb_id: MessageId
    origin: SiteId
    content: Any
    echo: bool = False


#: Listener invoked with ``(rb_id, origin, content)`` on delivery.
ReliableDeliveryListener = Callable[[MessageId, SiteId, Any], None]


class ReliableBroadcast:
    """Per-site endpoint of an echo-based reliable broadcast.

    Parameters
    ----------
    echo_on_first_receipt:
        When true (default), every site re-multicasts a message the first
        time it receives it, which masks a sender crash in the middle of a
        multicast.  Experiments that only run failure-free scenarios can turn
        echoing off to reduce the number of simulated envelopes.
    group:
        Optional broadcast-group membership (site ids, kept as a tuple so
        the transport resolves the receivers once).  When set, multicasts
        are restricted to exactly these sites, which lets several
        independent broadcast groups — e.g. one per shard — share a single
        network transport.  ``None`` (default) addresses every registered
        site, preserving the original fully-replicated behaviour.
    """

    def __init__(
        self,
        kernel: SimulationKernel,
        transport: NetworkTransport,
        site_id: SiteId,
        *,
        echo_on_first_receipt: bool = True,
        kind: str = RELIABLE_KIND,
        group: Optional[Sequence[SiteId]] = None,
    ) -> None:
        self.kernel = kernel
        self.transport = transport
        self.site_id = site_id
        self.kind = kind
        self.echo_on_first_receipt = echo_on_first_receipt
        self.group: Optional[Tuple[SiteId, ...]] = tuple(group) if group is not None else None
        self._delivered: Set[MessageId] = set()
        self._listeners: List[ReliableDeliveryListener] = []
        self.delivery_log: List[MessageId] = []

    # ------------------------------------------------------------------- api
    def add_listener(self, listener: ReliableDeliveryListener) -> None:
        """Register a delivery callback ``(rb_id, origin, content)``."""
        self._listeners.append(listener)

    def broadcast(self, content: Any) -> MessageId:
        """Reliably broadcast ``content`` to the group (including self)."""
        rb_id = f"rb:{self.site_id}:{next(_RB_COUNTER)}"
        payload = ReliablePayload(rb_id=rb_id, origin=self.site_id, content=content)
        self.transport.multicast(
            self.site_id, payload, kind=self.kind, destinations=self.group
        )
        return rb_id

    def on_envelope(self, envelope: Envelope) -> bool:
        """Process an incoming envelope; returns True if it belonged here."""
        if envelope.kind != self.kind:
            return False
        payload = envelope.payload
        if not isinstance(payload, ReliablePayload):
            return False
        self._receive(payload)
        return True

    # -------------------------------------------------------------- internal
    def _receive(self, payload: ReliablePayload) -> None:
        if payload.rb_id in self._delivered:
            return
        self._delivered.add(payload.rb_id)
        if self.echo_on_first_receipt and not payload.echo and payload.origin != self.site_id:
            echo = ReliablePayload(
                rb_id=payload.rb_id,
                origin=payload.origin,
                content=payload.content,
                echo=True,
            )
            self.transport.multicast(
                self.site_id,
                echo,
                kind=self.kind,
                destinations=self.group,
                include_sender=False,
            )
        self.delivery_log.append(payload.rb_id)
        for listener in self._listeners:
            listener(payload.rb_id, payload.origin, payload.content)

    # ------------------------------------------------------------ inspection
    def has_delivered(self, rb_id: MessageId) -> bool:
        """Return whether this endpoint already delivered ``rb_id``."""
        return rb_id in self._delivered

    @property
    def delivered_count(self) -> int:
        """Number of distinct messages delivered so far."""
        return len(self._delivered)
