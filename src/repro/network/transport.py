"""The network transport: moves envelopes between registered sites.

The transport implements the paper's system model (Section 2): asynchronous
channels with no bound on transmission delay, reliable delivery (a message
sent to a correct site is eventually received), crash-stop failures with
recovery, and optional network partitions.  Channels lose nothing;
reliability across crashes and partitions is provided by holding envelopes
until the receiver is reachable again.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..errors import NetworkError, UnknownSiteError
from ..simulation.kernel import SimulationKernel
from ..simulation.randomness import RandomStream
from ..types import EnvelopeId, SiteId
from .latency import LanMulticastLatency, LatencyModel
from .message import DeliveryRecord, Envelope, next_envelope_id
from .partitions import PartitionController

#: Signature of the per-site receive handler registered with the transport.
ReceiveHandler = Callable[[Envelope], None]

#: Virtual seconds between re-checks of an envelope held by a partition.
_PARTITION_RECHECK = 0.002


class TransportStats:
    """Counters maintained by the transport for benchmarking."""

    __slots__ = (
        "multicasts_sent",
        "envelopes_delivered",
        "envelopes_buffered",
        "retransmissions",
    )

    def __init__(self) -> None:
        self.multicasts_sent = self.envelopes_delivered = 0
        self.envelopes_buffered = 0
        #: Always 0: channels lose nothing.  Kept for the benchmark's
        #: ``network.retransmissions`` column until that column is retired.
        self.retransmissions = 0

    def snapshot(self) -> Dict[str, int]:
        """Return the counters as a plain dictionary."""
        return {name: getattr(self, name) for name in self.__slots__}


class _SiteEndpoint:
    """Internal per-site registration record."""

    __slots__ = ("site_id", "handler", "up", "pending")

    def __init__(self, site_id: SiteId, handler: ReceiveHandler) -> None:
        self.site_id = site_id
        self.handler = handler
        self.up = True
        self.pending: List[Envelope] = []


class NetworkTransport:
    """Simulated network connecting a fixed set of sites.

    Every envelope the transport accepts reaches each of its registered
    receivers exactly once, whatever happens to its sender: a multicast
    schedules all its arrivals when sent, and envelopes for a crashed or
    partitioned receiver are held until it is reachable.  The broadcast
    layers rely on this and relay nothing; over a transport that can lose a
    crashed sender's messages they would need the fail-stop "Lazy Reliable
    Broadcast" (Guerraoui and Rodrigues, *Introduction to Reliable
    Distributed Programming*).

    Parameters
    ----------
    kernel:
        The simulation kernel used for scheduling deliveries.
    latency_model:
        Model producing one-way delays; defaults to the LAN multicast model
        used for the Figure 1 reproduction.
    record_deliveries:
        When true, every delivery is appended to :attr:`delivery_log`, which
        the spontaneous-order experiment uses to reconstruct per-site receive
        sequences.
    medium_frame_time:
        When positive, multicasts are serialised through a shared medium (a
        10 Mbit/s Ethernet in the paper's testbed): each multicast occupies
        the medium for ``medium_frame_time`` seconds and back-to-back
        multicasts queue behind each other.  This serialisation is what keeps
        the spontaneous total order high even when many sites broadcast at
        almost the same instant (paper Figure 1).
    """

    def __init__(
        self,
        kernel: SimulationKernel,
        latency_model: Optional[LatencyModel] = None,
        *,
        record_deliveries: bool = False,
        medium_frame_time: float = 0.0,
    ) -> None:
        if medium_frame_time < 0.0:
            raise NetworkError("medium frame time cannot be negative")
        self.kernel = kernel
        self.latency_model = latency_model or LanMulticastLatency()
        self.medium_frame_time = medium_frame_time
        self._medium_free_at = 0.0
        self.partitions = PartitionController(clock=kernel.now)
        self.stats = TransportStats()
        self.delivery_log: List[DeliveryRecord] = []
        self._record_deliveries = record_deliveries
        self._sites: Dict[SiteId, _SiteEndpoint] = {}
        self._latency_stream: RandomStream = kernel.random.stream("network.latency")
        #: Resolved multicast receivers by (destinations, sender, include_sender).
        self._receivers: Dict[tuple, Tuple[SiteId, ...]] = {}

    # ---------------------------------------------------------- registration
    def register_site(self, site_id: SiteId, handler: ReceiveHandler) -> None:
        """Register a site and its receive handler.

        Re-registering an existing site replaces its handler (used when a
        site restarts after a crash with a fresh protocol stack).
        """
        self._receivers.clear()
        if site_id in self._sites:
            endpoint = self._sites[site_id]
            endpoint.handler = handler
        else:
            self._sites[site_id] = _SiteEndpoint(site_id=site_id, handler=handler)

    def sites(self) -> List[SiteId]:
        """Return the identifiers of all registered sites (sorted)."""
        return sorted(self._sites)

    # -------------------------------------------------------------- up/down
    def set_site_up(self, site_id: SiteId, up: bool) -> None:
        """Mark a site as crashed (``up=False``) or recovered (``up=True``).

        Envelopes destined to a crashed site are buffered and delivered once
        the site recovers, preserving reliable channels across crashes.
        """
        endpoint = self._endpoint(site_id)
        endpoint.up = up
        if up and endpoint.pending:
            pending, endpoint.pending = endpoint.pending, []
            for envelope in pending:
                self._schedule_delivery(envelope, site_id)

    def is_site_up(self, site_id: SiteId) -> bool:
        """Return whether the site is currently up."""
        return self._endpoint(site_id).up

    # --------------------------------------------------------------- sending
    def multicast(
        self,
        sender: SiteId,
        payload: object,
        *,
        kind: str = "data",
        destinations: Optional[Iterable[SiteId]] = None,
        include_sender: bool = True,
    ) -> EnvelopeId:
        """Multicast ``payload`` from ``sender`` to ``destinations``.

        Without explicit destinations the envelope goes to every registered
        site.  The shared delay component of the latency model is drawn once
        per multicast (it models the shared Ethernet medium), while the
        per-receiver component is drawn independently for every destination.

        Receivers are resolved once per ``(destinations, sender,
        include_sender)``: the sorted, validated receiver tuple is kept and
        reused while the same tuple (or ``None``) is passed again, which is
        what the broadcast groups and failure detectors do.
        :meth:`register_site` forgets every kept tuple, because a new site
        changes what ``None`` means.  An unregistered sender or destination
        raises :class:`~repro.errors.UnknownSiteError` on every send, since
        nothing is kept for it.
        """
        try:
            receivers = self._receivers[destinations, sender, include_sender]
        except (KeyError, TypeError):  # TypeError: a list is not hashable
            receivers = self._resolve_receivers(sender, destinations, include_sender)
        envelope = Envelope(
            envelope_id=next_envelope_id(self.kernel, sender),
            sender=sender,
            payload=payload,
            kind=kind,
            sent_at=self.kernel.now(),
        )
        self.stats.multicasts_sent += 1
        stream = self._latency_stream
        shared = self.latency_model.shared_delay(stream)
        if self.medium_frame_time > 0.0:
            shared += self._occupy_medium()
        # Every receiver gets this one envelope; the receiver travels beside it.
        receiver_delay = self.latency_model.receiver_delay
        schedule = self.kernel.schedule
        arrive = self._arrive
        for target in receivers:
            schedule(
                shared + receiver_delay(sender, target, stream),
                partial(arrive, envelope, target),
                label="net-deliver",
            )
        return envelope.envelope_id

    def _resolve_receivers(
        self,
        sender: SiteId,
        destinations: Optional[Iterable[SiteId]],
        include_sender: bool,
    ) -> Tuple[SiteId, ...]:
        """Validate and sort one multicast's receivers, and keep the result."""
        self._endpoint(sender)
        if destinations is None:
            targets = self.sites()
        else:
            destinations = tuple(destinations)
            targets = sorted(set(destinations))
        if not include_sender:
            targets = [target for target in targets if target != sender]
        for target in targets:
            self._endpoint(target)
        receivers = tuple(targets)
        self._receivers[destinations, sender, include_sender] = receivers
        return receivers

    def _occupy_medium(self) -> float:
        """Serialise a multicast through the shared medium.

        Called only when ``medium_frame_time`` is positive.  Returns the
        additional delay (queueing behind earlier frames plus the frame
        transmission time) that every receiver of this multicast sees.
        """
        now = self.kernel.now()
        start = max(now, self._medium_free_at)
        finish = start + self.medium_frame_time
        self._medium_free_at = finish
        return finish - now

    # -------------------------------------------------------------- internal
    def _endpoint(self, site_id: SiteId) -> _SiteEndpoint:
        try:
            return self._sites[site_id]
        except KeyError:
            raise UnknownSiteError(f"site {site_id!r} is not registered") from None

    # Event labels on the delivery paths are static strings: formatting a
    # per-envelope label allocated on every single message and dominated the
    # kernel hot-path profile; the scheduled callback still carries the full
    # envelope and its receiver for debugging.
    def _arrive(self, envelope: Envelope, destination: SiteId) -> None:
        # The receiver was validated when the envelope was sent.
        endpoint = self._sites[destination]
        partitions = self.partitions
        if not partitions.intact and not partitions.connected(envelope.sender, destination):
            # Hold the envelope until the partition heals; re-check shortly.
            self.stats.envelopes_buffered += 1
            self.kernel.schedule(
                _PARTITION_RECHECK,
                lambda: self._arrive(envelope, destination),
                label="net-partition-hold",
            )
            return
        if not endpoint.up:
            self.stats.envelopes_buffered += 1
            endpoint.pending.append(envelope)
            return
        self.stats.envelopes_delivered += 1
        if self._record_deliveries:
            self.delivery_log.append(
                DeliveryRecord(
                    envelope_id=envelope.envelope_id,
                    sender=envelope.sender,
                    receiver=destination,
                    sent_at=envelope.sent_at,
                    delivered_at=self.kernel.now(),
                    kind=envelope.kind,
                    payload=envelope.payload,
                )
            )
        endpoint.handler(envelope)

    def _schedule_delivery(self, envelope: Envelope, destination: SiteId) -> None:
        """Schedule an immediate delivery attempt (used after recovery)."""
        self.kernel.schedule(
            0.0,
            lambda: self._arrive(envelope, destination),
            label="net-flush",
        )
