"""Atomic Broadcast with Optimistic Delivery (paper Section 2.1).

Implements the three primitives of the paper:

* ``TO-broadcast(m)``   — :meth:`OptimisticAtomicBroadcast.broadcast`
* ``Opt-deliver(m)``    — emitted to registered opt-listeners as soon as the
  message arrives from the network (tentative order, may differ per site).
* ``TO-deliver(m)``     — emitted once the definitive total order of the
  message is known (identical at all sites).

A *conservative* atomic broadcast — the baseline the paper argues against —
is the degenerate case in which ``Opt-deliver(m)`` and ``TO-deliver(m)``
coincide.  It is this same protocol constructed with
``opt_deliver_on_receipt=False``: a received message is then Opt-delivered
immediately before its TO-delivery, so the tentative order always equals the
definitive one and the application pays the full ordering latency before it
can start any work.  Ordering, failover and gap repair are shared, so the two
differ in delivery time only.

The definitive order is established by a coordinator site.  Two ordering
modes are provided:

``sequencer`` (default)
    The coordinator confirms messages in the order it received them, with a
    single additional control message per data message.  TO-delivery lags
    Opt-delivery by roughly one network hop — the ordering delay that the OTP
    transaction layer overlaps with transaction execution.

``voting``
    Faithful to the agreement-check of Pedone & Schiper's optimistic atomic
    broadcast: every site announces its local (spontaneous) position for each
    message; the coordinator releases the confirmation once all up sites have
    announced the message, and records whether the spontaneous orders agreed
    (fast path) or not (conservative path).  This mode costs extra messages
    and latency and is used by the optimism trade-off benchmark (claim C5).

Both modes satisfy the five properties of Section 2.1 in failure-free runs
and tolerate coordinator crashes through explicit coordinator promotion
(:meth:`set_coordinator`).  The cluster's one failover governor decides the
promotion and repoints every endpoint in one simulation event, standing in
for the paper's consensus fallback (a modelling assumption, see
``docs/recovery.md``).
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Set

from ..errors import BroadcastError
from ..network.dispatcher import SiteDispatcher
from ..network.message import Envelope
from ..network.transport import NetworkTransport
from ..simulation.kernel import SimulationKernel
from ..types import MessageId, SiteId
from .interfaces import (
    AtomicBroadcastEndpoint,
    BroadcastMessage,
    NoOpFill,
    next_broadcast_id,
    noop_fill_id,
)

#: Envelope kinds used by the optimistic protocol.
OPTIMISTIC_DATA_KIND = "optabcast.data"
OPTIMISTIC_ORDER_KIND = "optabcast.order"
OPTIMISTIC_ANNOUNCE_KIND = "optabcast.announce"
OPTIMISTIC_SOLICIT_KIND = "optabcast.solicit"

#: Supported ordering modes.
ORDERING_MODES = ("sequencer", "voting")


class OptimisticData(NamedTuple):
    """Data message disseminated to all sites (carries the payload)."""

    message_id: MessageId
    origin: SiteId
    payload: Any
    broadcast_at: float


class OptimisticOrder(NamedTuple):
    """Definitive-order confirmation emitted by the coordinator.

    In practice this is the paper's "confirmation message that contains the
    identifier of m" — the payload itself travelled in the data message.
    """

    message_id: MessageId
    position: int


class OptimisticAnnounce(NamedTuple):
    """A site's announcement of its local tentative position for a message."""

    message_id: MessageId
    site_id: SiteId
    local_position: int


class DataSolicit(NamedTuple):
    """A recovering/stalled site's request for the data of an ordered message.

    Sent when delivery stalls at a definitive position whose data message was
    consumed by a previous (crashed) incarnation of this site.  Any group
    member that still holds the data re-disseminates it; the coordinator, when
    nobody does, eventually fills the position with a no-op.
    """

    message_id: MessageId
    position: int
    requester: SiteId


class OptimisticFill(NamedTuple):
    """Coordinator decree declaring a definitive position a dead no-op.

    Issued after a whole-group crash lost the data of an already-ordered
    message at every member (nothing in any durable redo log and nobody
    answered the solicit).  All sites advance past the position without
    delivering a payload; the origin client re-submits the lost request.
    """

    position: int
    message_id: MessageId


class _PendingConfirmation:
    """Coordinator-side state for a message awaiting confirmation (voting mode)."""

    __slots__ = ("message_id", "position", "announced_positions", "released")

    def __init__(self, message_id: MessageId, position: int) -> None:
        self.message_id = message_id
        self.position = position
        self.announced_positions: Dict[SiteId, int] = {}
        self.released = False


class OptimisticAtomicBroadcast(AtomicBroadcastEndpoint):
    """Per-site endpoint of the atomic broadcast with optimistic delivery."""

    def __init__(
        self,
        kernel: SimulationKernel,
        transport: NetworkTransport,
        dispatcher: SiteDispatcher,
        site_id: SiteId,
        *,
        coordinator_site: SiteId,
        ordering_mode: str = "sequencer",
        voting_timeout: float = 0.010,
        group: Optional[Sequence[SiteId]] = None,
        opt_deliver_on_receipt: bool = True,
    ) -> None:
        super().__init__(site_id)
        if ordering_mode not in ORDERING_MODES:
            raise BroadcastError(
                f"unknown ordering mode {ordering_mode!r}; expected one of {ORDERING_MODES}"
            )
        if voting_timeout <= 0.0:
            raise BroadcastError("voting timeout must be positive")
        self.kernel = kernel
        self.transport = transport
        self._coordinator_site = coordinator_site
        self.ordering_mode = ordering_mode
        #: ``False`` selects conservative delivery (see the module docstring).
        self.opt_deliver_on_receipt = opt_deliver_on_receipt
        self.voting_timeout = voting_timeout
        #: A tuple, so the transport resolves the receivers once.
        self.group = tuple(group) if group is not None else None
        # The transport delivers each envelope to each receiver exactly once,
        # even when the sender crashes, so every message is a plain multicast.
        dispatcher.register_kind(OPTIMISTIC_DATA_KIND, self._on_data)
        dispatcher.register_kind(OPTIMISTIC_ORDER_KIND, self._on_order)
        dispatcher.register_kind(OPTIMISTIC_ANNOUNCE_KIND, self._on_announce_envelope)
        dispatcher.register_kind(OPTIMISTIC_SOLICIT_KIND, self._on_solicit_envelope)
        #: The next tentative (receipt) position; a received record keeps
        #: its own in ``BroadcastMessage.local_position``.
        self._next_local_position = 0
        self._positions: Dict[int, MessageId] = {}
        #: Messages this endpoint ordered or saw ordered, kept only once it
        #: coordinates: until then it would equal ``set(_positions.values())``,
        #: from which ``_coordinator_handle`` seeds it.
        self._ordered_messages: Optional[Set[MessageId]] = None
        self._next_position_to_assign = 0
        self._next_position_to_deliver = 0
        self._pending_confirmations: Dict[MessageId, _PendingConfirmation] = {}
        #: Positions declared dead by a coordinator gap fill.
        self._noop_positions: Set[int] = set()
        self._gap_probe_position: Optional[int] = None
        self.fill_safe = None
        #: Voting-mode statistics: confirmations released because every site
        #: announced the same spontaneous position (fast path) vs. released on
        #: disagreement or timeout (conservative path).
        self.fast_path_confirmations = 0
        self.conservative_confirmations = 0

    #: How long delivery may stall at one position before the data is
    #: solicited from the group, and how long the coordinator then waits for
    #: an answer before declaring the position dead.  Both sit far above any
    #: healthy ordering delay (sub-millisecond LAN latencies, millisecond
    #: partition re-checks), so they only ever fire after a real loss.
    GAP_PROBE_DELAY = 0.030
    FILL_GRACE = 0.030

    # ------------------------------------------------------------------- api
    def broadcast(self, payload: Any) -> MessageId:
        """TO-broadcast ``payload`` to all sites (paper primitive)."""
        message_id = next_broadcast_id(self.kernel, self.site_id)
        self.stats.broadcasts += 1
        data = OptimisticData(
            message_id=message_id,
            origin=self.site_id,
            payload=payload,
            broadcast_at=self.kernel.now(),
        )
        if self.tracer is not None:
            self.tracer.record(
                self.kernel.now(),
                "broadcast_send",
                self.site_id,
                getattr(payload, "transaction_id", None),
                message_id=message_id,
            )
        self.transport.multicast(
            self.site_id, data, kind=OPTIMISTIC_DATA_KIND, destinations=self.group
        )
        return message_id

    @property
    def coordinator_site(self) -> SiteId:
        """The site currently establishing the definitive order."""
        return self._coordinator_site

    def set_coordinator(self, coordinator_site: SiteId) -> None:
        """Promote a new coordinator (after the previous one crashed)."""
        self._coordinator_site = coordinator_site
        self._order_unconfirmed()

    def _order_unconfirmed(self) -> None:
        """As coordinator, order everything received but never seen confirmed."""
        if self.is_coordinator:
            received = sorted(
                (record.local_position, record.message_id)
                for record in self._messages.values()
                if record.local_position is not None
            )
            for _, message_id in received:
                self._coordinator_handle(message_id)

    @property
    def next_position_to_assign(self) -> int:
        """The next definitive position this endpoint would assign."""
        return self._next_position_to_assign

    def ensure_assign_floor(self, floor: int) -> None:
        """Raise the position counter to at least ``floor``.

        A view change calls this on the incoming coordinator with the highest
        counter observed across the group (the state exchange of the view
        change), so positions the outgoing coordinator already assigned —
        possibly still in flight — are never reassigned to other messages.
        """
        if floor > self._next_position_to_assign:
            self._next_position_to_assign = floor

    # ------------------------------------------------------- crash recovery
    def crash_reset(self, *, committed_through: int) -> None:
        """Destroy this endpoint's volatile state (the site crashed).

        Everything the communication manager held in memory is lost: message
        records, tentative positions, the definitive-order map, delivery
        pointers and pending confirmations.  ``committed_through`` is the
        site's durable commit frontier; TO-deliveries beyond it were handed
        to a transaction manager whose state died with the process, so they
        are struck from the delivery log (the new incarnation re-delivers
        them) and recorded as crash-voided for the property checker.
        """
        self._strike_undurable_deliveries(committed_through)
        if not self.opt_deliver_on_receipt:
            # Opt- and TO-delivery coincide, so the opt log mirrors the TO log.
            delivered = set(self.to_delivery_log)
            self.opt_delivery_log = [
                message_id for message_id in self.opt_delivery_log if message_id in delivered
            ]
        self._messages.clear()
        self._next_local_position = 0
        self._positions.clear()
        self._ordered_messages = None
        self._pending_confirmations.clear()
        self._noop_positions.clear()
        self._next_position_to_assign = 0
        self._next_position_to_deliver = 0
        self._gap_probe_position = None

    def rejoin(
        self, donor: Optional["OptimisticAtomicBroadcast"], *, committed_through: int
    ) -> None:
        """Re-register with the broadcast group at the current sequence point.

        ``committed_through`` is this site's commit frontier *after* state
        transfer; delivery resumes at the next position.  When a live
        ``donor`` endpoint is given, its view of the definitive order and its
        undelivered message records are copied: positions at or below the
        frontier are marked transfer-covered (their transactions arrived via
        the redo log), everything beyond is received into the fresh
        incarnation — and, when delivering on receipt, opt-delivered so the
        scheduler can execute it while the definitive confirmations stream in.
        """
        self._next_position_to_deliver = max(
            self._next_position_to_deliver, committed_through + 1
        )
        self._next_position_to_assign = max(
            self._next_position_to_assign, committed_through + 1
        )
        if donor is not None:
            self._next_position_to_assign = max(
                self._next_position_to_assign, donor._next_position_to_assign
            )
            self._noop_positions.update(donor._noop_positions)
            for record in self._copy_donor_order(donor, committed_through):
                self._receive_locally(record)
            if self._ordered_messages is not None:
                self._ordered_messages.update(self._positions.values())
        # A recovered site promoted straight back into the coordinator role
        # (whole-group outage) must order whatever it just copied.
        self._order_unconfirmed()
        self._try_to_deliver()

    def _copy_donor_order(
        self, donor: "OptimisticAtomicBroadcast", committed_through: int
    ) -> List[BroadcastMessage]:
        """Copy a donor endpoint's ordering knowledge (rejoin core).

        Adopts the donor's position map, marks every message at or below the
        post-transfer frontier ``committed_through`` as transfer-covered
        (its transaction arrived via the redo log), and returns fresh local
        records for the donor's messages beyond the frontier that this
        incarnation does not know yet.
        """
        fresh: List[BroadcastMessage] = []
        donor_position_of: Dict[MessageId, int] = {}
        for position, message_id in donor._positions.items():
            donor_position_of[message_id] = position
            self._positions.setdefault(position, message_id)
            if position <= committed_through:
                self.transfer_covered.add(message_id)
        for message_id, donor_record in donor._messages.items():
            position = donor_position_of.get(message_id)
            if position is None and donor_record.definitive_position is not None:
                position = donor_record.definitive_position
            if position is not None and position <= committed_through:
                self.transfer_covered.add(message_id)
                continue
            if message_id in self._messages or message_id in self.transfer_covered:
                continue
            record = BroadcastMessage(
                message_id=message_id,
                origin=donor_record.origin,
                payload=donor_record.payload,
                broadcast_at=donor_record.broadcast_at,
            )
            self._messages[message_id] = record
            fresh.append(record)
        return fresh

    # ----------------------------------------------------- data dissemination
    def _on_data(self, envelope: Envelope) -> bool:
        content = envelope.payload
        if not isinstance(content, OptimisticData):
            return False
        message_id = content.message_id
        record = self._messages.get(message_id)
        if record is None:
            record = BroadcastMessage(
                message_id=message_id,
                origin=content.origin,
                payload=content.payload,
                broadcast_at=content.broadcast_at,
            )
            self._messages[message_id] = record
        else:
            record.payload = content.payload
            record.origin = content.origin
            record.broadcast_at = content.broadcast_at
        if message_id in self.transfer_covered:
            # A stale copy of a message whose transaction already reached this
            # site through state transfer: keep the payload (for solicits) but
            # never deliver it again.
            self._try_to_deliver()
            return True
        if record.local_position is None:
            self._receive_locally(record)
        if self.is_coordinator:
            self._coordinator_handle(message_id)
        self._try_to_deliver()
        return True

    def _receive_locally(self, record: BroadcastMessage) -> None:
        """Assign ``record`` the next tentative position; Opt-deliver on receipt."""
        local_position = self._next_local_position
        self._next_local_position += 1
        record.local_position = local_position
        if self.opt_deliver_on_receipt:
            record.opt_delivered_at = self.kernel.now()
            self._emit_opt_deliver(record)
        if self.ordering_mode == "voting":
            self._announce(record.message_id, local_position)

    # --------------------------------------------------------- coordination
    def _coordinator_handle(self, message_id: MessageId) -> None:
        ordered = self._ordered_messages
        if ordered is None:
            ordered = self._ordered_messages = set(self._positions.values())
        if message_id in ordered or message_id in self._pending_confirmations:
            return
        position = self._next_position_to_assign
        self._next_position_to_assign += 1
        if self.ordering_mode == "sequencer":
            self._release_confirmation(message_id, position)
            return
        pending = _PendingConfirmation(message_id=message_id, position=position)
        record = self._messages.get(message_id)
        local_position = record.local_position if record is not None else None
        pending.announced_positions[self.site_id] = (
            position if local_position is None else local_position
        )
        self._pending_confirmations[message_id] = pending
        self.kernel.schedule(
            self.voting_timeout,
            lambda: self._voting_timeout(message_id),
            label=f"optabcast-voting-timeout:{message_id}",
        )
        self._maybe_release(pending)

    def _release_confirmation(self, message_id: MessageId, position: int) -> None:
        # Every release follows a ``_coordinator_handle``, which seeded the set.
        self._ordered_messages.add(message_id)  # type: ignore[union-attr]
        self.stats.control_messages += 1
        self.transport.multicast(
            self.site_id,
            OptimisticOrder(message_id=message_id, position=position),
            kind=OPTIMISTIC_ORDER_KIND,
            destinations=self.group,
        )

    def _voting_timeout(self, message_id: MessageId) -> None:
        pending = self._pending_confirmations.get(message_id)
        if pending is None or pending.released:
            return
        pending.released = True
        self.conservative_confirmations += 1
        self._release_confirmation(message_id, pending.position)

    def _maybe_release(self, pending: _PendingConfirmation) -> None:
        if pending.released:
            return
        members = self.group if self.group is not None else self.transport.sites()
        expected_sites = [site for site in members if self.transport.is_site_up(site)]
        if not all(site in pending.announced_positions for site in expected_sites):
            return
        pending.released = True
        positions = set(pending.announced_positions.values())
        if len(positions) == 1 and pending.position in positions:
            self.fast_path_confirmations += 1
        else:
            self.conservative_confirmations += 1
        self._release_confirmation(pending.message_id, pending.position)

    # ----------------------------------------------------------- announcing
    def _announce(self, message_id: MessageId, local_position: int) -> None:
        announce = OptimisticAnnounce(
            message_id=message_id, site_id=self.site_id, local_position=local_position
        )
        self.stats.control_messages += 1
        self.transport.multicast(
            self.site_id, announce, kind=OPTIMISTIC_ANNOUNCE_KIND, destinations=self.group
        )

    def _on_announce_envelope(self, envelope: Envelope) -> bool:
        announce = envelope.payload
        if not isinstance(announce, OptimisticAnnounce):
            return False
        if not self.is_coordinator:
            return True
        pending = self._pending_confirmations.get(announce.message_id)
        if pending is None or pending.released:
            return True
        pending.announced_positions[announce.site_id] = announce.local_position
        self._maybe_release(pending)
        return True

    # ---------------------------------------------------- definitive delivery
    def _on_order(self, envelope: Envelope) -> bool:
        content = envelope.payload
        if isinstance(content, OptimisticFill):
            self._on_fill(content)
            return True
        if not isinstance(content, OptimisticOrder):
            return False
        if content.position in self._positions:
            return True
        self._positions[content.position] = content.message_id
        if self._ordered_messages is not None:
            self._ordered_messages.add(content.message_id)
        if content.position >= self._next_position_to_assign:
            self._next_position_to_assign = content.position + 1
        self._try_to_deliver()
        return True

    def _on_fill(self, fill: OptimisticFill) -> None:
        """Apply a coordinator gap fill: the position becomes a no-op."""
        if fill.position < self._next_position_to_deliver:
            return  # already delivered (or skipped) here
        self._noop_positions.add(fill.position)
        if fill.position >= self._next_position_to_assign:
            self._next_position_to_assign = fill.position + 1
        self._try_to_deliver()

    def _try_to_deliver(self) -> None:
        while True:
            position = self._next_position_to_deliver
            if position in self._noop_positions:
                self._deliver_noop(position)
                self._next_position_to_deliver += 1
                continue
            message_id = self._positions.get(position)
            if message_id is None:
                return
            if message_id in self.transfer_covered:
                # The transaction behind this position arrived via state
                # transfer; skip the position without re-delivering.
                self._next_position_to_deliver += 1
                continue
            record = self._messages.get(message_id)
            if record is None or record.opt_delivered_at is None:
                if record is None or self.opt_deliver_on_receipt:
                    # Local Order property: a site must Opt-deliver a message
                    # before TO-delivering it.  Wait until the data arrives —
                    # and probe the group if it never does (a crashed
                    # incarnation of this site may have consumed the only copy).
                    self._schedule_gap_probe(position, message_id)
                    return
                # Conservative delivery: Opt-deliver immediately before TO.
                record.opt_delivered_at = self.kernel.now()
                self._emit_opt_deliver(record)
            if record.to_delivered_at is not None:
                self._next_position_to_deliver += 1
                continue
            record.definitive_position = position
            record.to_delivered_at = self.kernel.now()
            local_position = record.local_position
            if local_position is not None and local_position != position:
                self.stats.out_of_order_to_deliveries += 1
            self._emit_to_deliver(record)
            self._next_position_to_deliver += 1

    def _deliver_noop(self, position: int) -> None:
        """TO-deliver the no-op filling a dead position."""
        record = BroadcastMessage(
            message_id=noop_fill_id(position),
            origin=self.site_id,
            payload=NoOpFill(position=position),
            broadcast_at=self.kernel.now(),
        )
        record.definitive_position = position
        record.opt_delivered_at = self.kernel.now()
        record.to_delivered_at = self.kernel.now()
        self._messages[record.message_id] = record
        self._emit_to_deliver(record)

    # ------------------------------------------------------------ gap repair
    def _schedule_gap_probe(self, position: int, message_id: MessageId) -> None:
        if self._gap_probe_position == position:
            return
        self._gap_probe_position = position
        self.kernel.schedule(
            self.GAP_PROBE_DELAY,
            lambda: self._gap_probe(position, message_id),
            label=f"optabcast-gap-probe:{self.site_id}:{position}",
        )

    def _gap_probe(self, position: int, message_id: MessageId) -> None:
        if self._gap_probe_position == position:
            self._gap_probe_position = None
        if self._next_position_to_deliver != position:
            return  # delivery progressed past the suspected gap
        record = self._messages.get(message_id)
        if record is not None and record.local_position is not None:
            return  # the data arrived; the normal path delivers it
        if not self.transport.is_site_up(self.site_id):
            # The site is down; if the stall persists after recovery, the
            # rejoin's delivery attempt schedules a fresh probe.
            return
        self.stats.control_messages += 1
        self.transport.multicast(
            self.site_id,
            DataSolicit(
                message_id=message_id, position=position, requester=self.site_id
            ),
            kind=OPTIMISTIC_SOLICIT_KIND,
            destinations=self.group,
            include_sender=False,
        )
        if self.is_coordinator:
            self._schedule_fill(position, message_id)

    def _on_solicit_envelope(self, envelope: Envelope) -> bool:
        solicit = envelope.payload
        if not isinstance(solicit, DataSolicit):
            return False
        record = self._messages.get(solicit.message_id)
        if record is not None and record.payload is not None:
            # We still hold the data: re-disseminate it for the requester.
            self.stats.control_messages += 1
            self.transport.multicast(
                self.site_id,
                OptimisticData(
                    message_id=solicit.message_id,
                    origin=record.origin,
                    payload=record.payload,
                    broadcast_at=record.broadcast_at,
                ),
                kind=OPTIMISTIC_DATA_KIND,
                destinations=self.group,
            )
        elif self.is_coordinator:
            self._schedule_fill(solicit.position, solicit.message_id)
        return True

    #: How often a deferred fill re-checks whether the durable committer of a
    #: stalled position has recovered, before giving up (bounded so a site
    #: that never recovers cannot keep the simulation alive forever).
    FILL_RETRY_LIMIT = 20

    def _schedule_fill(
        self, position: int, message_id: MessageId, *, attempts: int = 0
    ) -> None:
        self.kernel.schedule(
            self.FILL_GRACE,
            lambda: self._maybe_fill(position, message_id, attempts=attempts),
            label=f"optabcast-fill:{self.site_id}:{position}",
        )

    def _maybe_fill(
        self, position: int, message_id: MessageId, *, attempts: int = 0
    ) -> None:
        """Declare ``position`` dead unless the data resurfaced meanwhile."""
        if not self.is_coordinator or position in self._noop_positions:
            return
        if position < self._next_position_to_deliver:
            return
        record = self._messages.get(message_id)
        if record is not None and record.payload is not None:
            return  # somebody answered the solicit
        if self.fill_safe is not None and not self.fill_safe(position):
            # Some site committed this position durably; when it recovers it
            # will push the commit via state transfer.  Check again later.
            if attempts < self.FILL_RETRY_LIMIT:
                self._schedule_fill(position, message_id, attempts=attempts + 1)
            return
        self.stats.control_messages += 1
        self.transport.multicast(
            self.site_id,
            OptimisticFill(position=position, message_id=message_id),
            kind=OPTIMISTIC_ORDER_KIND,
            destinations=self.group,
        )
