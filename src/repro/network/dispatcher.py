"""Per-site envelope dispatcher.

A site runs several protocol layers at once (failure detector, atomic
broadcast, replication manager).  The dispatcher
is registered as the site's single transport handler and routes incoming
envelopes to the layer that owns the envelope's ``kind``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..errors import NetworkError
from ..types import SiteId
from .message import Envelope
from .transport import NetworkTransport

#: A handler receives an envelope and returns True when it consumed it.
EnvelopeHandler = Callable[[Envelope], bool]


class SiteDispatcher:
    """Routes envelopes arriving at one site to the protocol layers."""

    def __init__(self, transport: NetworkTransport, site_id: SiteId) -> None:
        self.transport = transport
        self.site_id = site_id
        self._by_kind: Dict[str, List[EnvelopeHandler]] = {}
        self._catch_all: List[EnvelopeHandler] = []
        self.unhandled: List[Envelope] = []
        transport.register_site(site_id, self.dispatch)

    def register_kind(self, kind: str, handler: EnvelopeHandler) -> None:
        """Route envelopes whose ``kind`` matches exactly to ``handler``."""
        if not kind:
            raise NetworkError("envelope kind must be a non-empty string")
        self._by_kind.setdefault(kind, []).append(handler)

    def register(self, handler: EnvelopeHandler) -> None:
        """Register a catch-all handler tried when no kind handler consumes."""
        self._catch_all.append(handler)

    def dispatch(self, envelope: Envelope) -> None:
        """Transport entry point: route one envelope."""
        for handler in self._by_kind.get(envelope.kind, []):
            if handler(envelope):
                return
        for handler in self._catch_all:
            if handler(envelope):
                return
        self.unhandled.append(envelope)
