"""Measurement of the spontaneous total-order property (paper Figure 1).

The paper motivates optimistic delivery with an experiment on a 4-site
Ethernet cluster: when every site multicasts a message every ``x``
milliseconds, the percentage of messages that arrive at all sites in the same
order grows with ``x`` (about 99 % at 4 ms for their configuration).  This
module provides the measurement machinery: a periodic multicast source and
the order-agreement statistics computed from per-site receive sequences.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, NamedTuple, Sequence

from ..errors import BroadcastError
from ..network.message import DeliveryRecord
from ..network.transport import NetworkTransport
from ..simulation.kernel import SimulationKernel
from ..types import EnvelopeId, SiteId

#: Envelope kind used by the spontaneous-order probe traffic.
PROBE_KIND = "spontaneous.probe"


class ProbeMessage(NamedTuple):
    """Payload of one probe multicast."""

    origin: SiteId
    sequence: int


class PeriodicMulticastSource:
    """Makes one site multicast a probe message every ``interval`` seconds.

    A random phase offset within the first interval desynchronises the
    senders, as happens naturally on real hosts.
    """

    def __init__(
        self,
        kernel: SimulationKernel,
        transport: NetworkTransport,
        site_id: SiteId,
        *,
        interval: float,
        message_count: int,
    ) -> None:
        if interval < 0.0:
            raise BroadcastError("probe interval cannot be negative")
        if message_count <= 0:
            raise BroadcastError("message count must be positive")
        self.kernel = kernel
        self.transport = transport
        self.site_id = site_id
        self.interval = interval
        self.message_count = message_count
        self._sent = 0
        stream = kernel.random.stream(f"spontaneous.phase.{site_id}")
        self._phase = stream.uniform(0.0, max(interval, 1e-6))

    def start(self) -> None:
        """Schedule the first probe."""
        self.kernel.schedule(self._phase, self._send_next, label=f"probe-start:{self.site_id}")

    def _send_next(self) -> None:
        if self._sent >= self.message_count:
            return
        self._sent += 1
        self.transport.multicast(
            self.site_id,
            ProbeMessage(origin=self.site_id, sequence=self._sent),
            kind=PROBE_KIND,
        )
        if self._sent < self.message_count:
            self.kernel.schedule(self.interval, self._send_next, label=f"probe:{self.site_id}")


class OrderAgreementReport(NamedTuple):
    """Spontaneous-order statistics computed from per-site receive sequences."""

    message_count: int
    site_count: int
    #: Fraction of messages whose position is identical at every site — the
    #: metric plotted in the paper's Figure 1.
    same_position_fraction: float
    #: Fraction of adjacent message pairs ordered the same way at every site.
    pairwise_agreement_fraction: float
    #: Number of messages at mismatching positions, per site.
    mismatches_by_site: Dict[SiteId, int]

    @property
    def same_position_percentage(self) -> float:
        """Same-position fraction expressed as a percentage."""
        return 100.0 * self.same_position_fraction


def receive_sequences(delivery_log: Iterable[DeliveryRecord]) -> Dict[SiteId, List[EnvelopeId]]:
    """Group a delivery log's probe records into per-site receive sequences."""
    sequences: Dict[SiteId, List[EnvelopeId]] = {}
    for record in delivery_log:
        if record.kind != PROBE_KIND:
            continue
        sequences.setdefault(record.receiver, []).append(record.envelope_id)
    return sequences


def order_agreement(sequences: Dict[SiteId, Sequence[EnvelopeId]]) -> OrderAgreementReport:
    """Compute order-agreement statistics across per-site receive sequences.

    Only messages received by every site are considered (in a failure-free
    run that is all of them).  A message counts as *spontaneously ordered* if
    it occupies the same position in every site's sequence restricted to the
    common messages — which is the statistic reported in the paper.
    """
    if not sequences:
        return OrderAgreementReport(
            message_count=0,
            site_count=0,
            same_position_fraction=1.0,
            pairwise_agreement_fraction=1.0,
            mismatches_by_site={},
        )
    common = set.intersection(*(set(seq) for seq in sequences.values()))
    restricted: Dict[SiteId, List[EnvelopeId]] = {
        site: [mid for mid in seq if mid in common] for site, seq in sequences.items()
    }
    sites = sorted(restricted)
    if not common:
        return OrderAgreementReport(
            message_count=0,
            site_count=len(sites),
            same_position_fraction=1.0,
            pairwise_agreement_fraction=1.0,
            mismatches_by_site={},
        )
    reference_site = sites[0]
    reference = restricted[reference_site]
    positions: Dict[SiteId, Dict[EnvelopeId, int]] = {
        site: {mid: index for index, mid in enumerate(seq)}
        for site, seq in restricted.items()
    }

    mismatches_by_site: Dict[SiteId, int] = {site: 0 for site in sites}
    same_position = 0
    for index, mid in enumerate(reference):
        agreed = True
        for site in sites[1:]:
            if positions[site][mid] != index:
                mismatches_by_site[site] += 1
                agreed = False
        if agreed:
            same_position += 1

    pair_total = 0
    pair_agreed = 0
    for first_index in range(len(reference) - 1):
        first, second = reference[first_index], reference[first_index + 1]
        pair_total += 1
        if all(positions[site][first] < positions[site][second] for site in sites):
            pair_agreed += 1

    return OrderAgreementReport(
        message_count=len(common),
        site_count=len(sites),
        same_position_fraction=same_position / len(common),
        pairwise_agreement_fraction=(pair_agreed / pair_total) if pair_total else 1.0,
        mismatches_by_site=mismatches_by_site,
    )


def tentative_vs_definitive_mismatch(
    tentative: Sequence[int], definitive: Sequence[int], size: int
) -> float:
    """Fraction of messages whose tentative position differs from the definitive one.

    Used to quantify how often a site's Opt-delivery order disagrees with the
    TO-delivery order — the event that may force the OTP scheduler to abort
    and reorder conflicting transactions.  Each message is given as its
    row, below ``size``, one per message (a site's
    :class:`~repro.broadcast.interfaces.AtomicBroadcastEndpoint` maps its
    logs to rows with ``rows_of``), so the count keeps a few typed entries
    per row and no set or dict.  Both sequences are restricted to the
    messages they share; a message seen twice counts at its last place.
    """
    # Bit 1: the row's message is in ``tentative``; bit 2: in ``definitive``.
    seen = bytearray(size)
    for bit, sequence in ((1, tentative), (2, definitive)):
        for row in sequence:
            seen[row] |= bit
    # Each shared message's last place in each sequence restricted to them.
    places = []
    for sequence in (tentative, definitive):
        place, shared = array("i", bytes(4 * size)), 0
        for row in sequence:
            if seen[row] == 3:
                place[row] = shared
                shared += 1
        places.append(place)
    if not shared:
        return 0.0
    tentative_place, definitive_place = places
    return sum(
        seen[row] == 3 and tentative_place[row] != definitive_place[row]
        for row in definitive
    ) / shared
