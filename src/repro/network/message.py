"""Network message envelope.

The transport layer moves :class:`Envelope` objects between sites.  The
payload is opaque to the network; broadcast protocols and replica managers
put their own protocol messages inside it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, NamedTuple

from ..types import EnvelopeId, SiteId

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..simulation.kernel import SimulationKernel


def next_envelope_id(kernel: "SimulationKernel", sender: SiteId) -> EnvelopeId:
    """Return an envelope identifier for ``sender``, unique within ``kernel``."""
    return f"{sender}#{next(kernel.serials['envelope'])}"


class Envelope(NamedTuple):
    """A single message travelling through the network.

    An immutable record (a named tuple: half the construction cost of a
    frozen dataclass).  A multicast builds one envelope and hands that same
    object to every receiver; the transport tracks each receiver beside it.

    Attributes
    ----------
    envelope_id:
        Unique identifier, assigned by the transport when the message is sent.
    sender:
        Originating site.
    payload:
        Protocol-specific content.
    kind:
        Short label describing the payload (used in traces and tests).
    sent_at:
        Virtual time at which the message entered the network.
    """

    envelope_id: EnvelopeId
    sender: SiteId
    payload: Any
    kind: str = "data"
    sent_at: float = 0.0


class DeliveryRecord(NamedTuple):
    """Bookkeeping record of one delivery of an envelope at one site.

    Collected by the transport's optional trace so that experiments (Figure 1)
    can reconstruct per-site receive sequences.
    """

    envelope_id: EnvelopeId
    sender: SiteId
    receiver: SiteId
    sent_at: float
    delivered_at: float
    kind: str = "data"
    payload: Any = None
