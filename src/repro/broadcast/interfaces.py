"""Common interfaces for broadcast protocols.

The paper (Section 2.1) defines Atomic Broadcast with Optimistic Delivery by
three primitives — ``TO-broadcast``, ``Opt-deliver`` and ``TO-deliver`` — and
five properties (Termination, Global Agreement, Local Agreement, Global
Order, Local Order).  Every protocol in this package exposes the same
listener-based interface so that the transaction-processing layer can run on
top of either the optimistic protocol or a conservative baseline without
modification.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, Callable, Dict, List, NamedTuple, Optional, Set, TypeVar

from ..types import MessageId, SiteId

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..observability.trace import TransactionTracer
    from ..simulation.kernel import SimulationKernel

_Endpoint = TypeVar("_Endpoint", bound="AtomicBroadcastEndpoint")

#: Prefix of synthetic message ids used to fill dead positions (gap fills).
NOOP_FILL_PREFIX = "noop:"


def next_broadcast_id(kernel: "SimulationKernel", origin: SiteId) -> MessageId:
    """Return a broadcast message identifier, unique within ``kernel``."""
    return f"m:{origin}:{next(kernel.serials['broadcast'])}"


def noop_fill_id(position: int) -> MessageId:
    """Synthetic message id of the no-op filling definitive ``position``."""
    return f"{NOOP_FILL_PREFIX}{position}"


def is_noop_fill_id(message_id: MessageId) -> bool:
    """Whether ``message_id`` names a gap-fill no-op rather than a payload."""
    return message_id.startswith(NOOP_FILL_PREFIX)


class NoOpFill(NamedTuple):
    """Payload delivered for a definitive position declared dead.

    After a whole-group crash the data of an already-ordered message can be
    lost at every member; the coordinator then fills the position with a
    no-op so delivery can proceed (the origin client re-submits the lost
    request under a fresh message id).  Replica managers advance their
    snapshot frontier past the position but install nothing.
    """

    position: int


class BroadcastMessage:
    """A message handled by an atomic broadcast protocol.

    One instance exists per site and per message; the timestamps record when
    that particular site opt-delivered and TO-delivered the message, which the
    benchmarks use to measure the ordering delay that OTP overlaps with
    transaction execution.  A site keeps one per message for the whole run,
    so the record has slots and no per-instance ``__dict__``.
    """

    __slots__ = (
        "message_id",
        "origin",
        "payload",
        "broadcast_at",
        "opt_delivered_at",
        "to_delivered_at",
        "definitive_position",
        "local_position",
    )

    def __init__(
        self,
        message_id: MessageId,
        origin: SiteId,
        payload: Any,
        broadcast_at: float = 0.0,
    ) -> None:
        self.message_id = message_id
        self.origin = origin
        self.payload = payload
        self.broadcast_at = broadcast_at
        self.opt_delivered_at: Optional[float] = None
        self.to_delivered_at: Optional[float] = None
        self.definitive_position: Optional[int] = None
        #: This site's tentative (receipt) position; ``None`` until the
        #: message is received locally (never, for a transfer-covered one).
        self.local_position: Optional[int] = None

    @property
    def opt_delivered(self) -> bool:
        """Whether this site has opt-delivered the message."""
        return self.opt_delivered_at is not None

    @property
    def to_delivered(self) -> bool:
        """Whether this site has TO-delivered the message."""
        return self.to_delivered_at is not None

    @property
    def ordering_delay(self) -> Optional[float]:
        """Time between optimistic and definitive delivery at this site."""
        if self.opt_delivered_at is None or self.to_delivered_at is None:
            return None
        return self.to_delivered_at - self.opt_delivered_at


#: Listener invoked on optimistic or definitive delivery of a message.
DeliveryListener = Callable[[BroadcastMessage], None]


class BroadcastStats:
    """Counters shared by all broadcast protocol implementations."""

    __slots__ = (
        "broadcasts",
        "opt_deliveries",
        "to_deliveries",
        "control_messages",
        "out_of_order_to_deliveries",
    )

    def __init__(self) -> None:
        self.broadcasts = self.opt_deliveries = self.to_deliveries = 0
        self.control_messages = self.out_of_order_to_deliveries = 0


class AtomicBroadcastEndpoint(abc.ABC):
    """Per-site endpoint of an atomic broadcast protocol.

    Subclasses implement :meth:`broadcast` and call :meth:`_emit_opt_deliver`
    and :meth:`_emit_to_deliver` when the corresponding event happens locally.
    The coordinator role and the crash/recovery protocol are part of the
    interface, so the cluster facade, the replica manager and the batching
    wrapper drive any endpoint without knowing its class.
    """

    #: Optional hook installed by the cluster facade: returns False when a
    #: definitive position is recorded in *some* site's durable redo log (that
    #: site will push the commit when it recovers), making a no-op fill unsafe.
    fill_safe: Optional[Callable[[int], bool]]

    def __init__(self, site_id: SiteId) -> None:
        self.site_id = site_id
        self.stats = BroadcastStats()
        #: Optional :class:`~repro.observability.trace.TransactionTracer`;
        #: ``None`` (the default) keeps the endpoint trace-free.
        self.tracer: Optional[TransactionTracer] = None
        self._opt_listeners: List[DeliveryListener] = []
        self._to_listeners: List[DeliveryListener] = []
        #: This site's record of every message it currently knows (volatile).
        self._messages: Dict[MessageId, BroadcastMessage] = {}
        #: Per-site log of delivered messages, in delivery order.  Used by the
        #: property checker (Global/Local Order, Agreement).
        self.opt_delivery_log: List[MessageId] = []
        self.to_delivery_log: List[MessageId] = []
        #: Messages this site obtained through state transfer instead of
        #: delivery (a recovered site rejoins past them).  The property
        #: checker counts them as delivered.
        self.transfer_covered: Set[MessageId] = set()
        #: Messages whose tentative/definitive delivery was voided by a crash
        #: of this site (the paper's agreement properties bind correct sites
        #: only; a crashed incarnation is excused).
        self.crash_voided: Set[MessageId] = set()

    # ------------------------------------------------------- crash recovery
    def note_transfer_covered(self, message_id: Optional[MessageId]) -> None:
        """Record that ``message_id`` was obtained via state transfer."""
        if message_id is not None:
            self.transfer_covered.add(message_id)

    def _strike_undurable_deliveries(self, committed_through: int) -> Set[MessageId]:
        """Void every delivery the crash destroyed (shared crash_reset core).

        Opt-delivered-but-unconfirmed messages died with the process, and so
        did TO-deliveries beyond the durable commit frontier
        ``committed_through`` — exactly the tail of ``to_delivery_log`` whose
        definitive positions exceed the frontier (delivery is position-
        ordered, so the undurable suffix is contiguous).  Those entries are
        struck from the log (the new incarnation re-delivers them) and the
        whole set is recorded as crash-voided for the property checker.
        Call *before* clearing ``_messages``.
        """
        messages = self._messages
        voided = {
            message_id
            for message_id, record in messages.items()
            if record.opt_delivered and not record.to_delivered
        }
        while self.to_delivery_log:
            record = messages.get(self.to_delivery_log[-1])
            if (
                record is None
                or record.definitive_position is None
                or record.definitive_position <= committed_through
            ):
                break
            voided.add(self.to_delivery_log.pop())
        self.crash_voided.update(voided)
        return voided

    # ------------------------------------------------------------------- api
    @abc.abstractmethod
    def broadcast(self, payload: Any) -> MessageId:
        """TO-broadcast ``payload`` to all sites; returns the message id."""

    def message(self, message_id: MessageId) -> Optional[BroadcastMessage]:
        """Return this site's record of ``message_id`` (or ``None``)."""
        return self._messages.get(message_id)

    def add_opt_listener(self, listener: DeliveryListener) -> None:
        """Register a callback for Opt-deliver events at this site."""
        self._opt_listeners.append(listener)

    def add_to_listener(self, listener: DeliveryListener) -> None:
        """Register a callback for TO-deliver events at this site."""
        self._to_listeners.append(listener)

    # ---------------------------------------------------- coordinator role
    @property
    @abc.abstractmethod
    def coordinator_site(self) -> SiteId:
        """The site currently establishing the definitive order."""

    @property
    def is_coordinator(self) -> bool:
        """Whether this endpoint currently establishes the definitive order."""
        return self.site_id == self.coordinator_site

    @abc.abstractmethod
    def set_coordinator(self, coordinator_site: SiteId) -> None:
        """Promote a new coordinator (after the previous one crashed)."""

    @property
    @abc.abstractmethod
    def next_position_to_assign(self) -> int:
        """The next definitive position this endpoint would assign."""

    @abc.abstractmethod
    def ensure_assign_floor(self, floor: int) -> None:
        """Raise the position counter to at least ``floor`` (view change)."""

    # ------------------------------------------------------- crash recovery
    @abc.abstractmethod
    def crash_reset(self, *, committed_through: int) -> None:
        """Destroy this endpoint's volatile state (the site crashed)."""

    @abc.abstractmethod
    def rejoin(
        self: _Endpoint, donor: Optional[_Endpoint], *, committed_through: int
    ) -> None:
        """Re-register with the broadcast group at the current sequence point."""

    # -------------------------------------------------------------- emitters
    def _emit_opt_deliver(self, message: BroadcastMessage) -> None:
        self.stats.opt_deliveries += 1
        self.opt_delivery_log.append(message.message_id)
        for listener in self._opt_listeners:
            listener(message)

    def _emit_to_deliver(self, message: BroadcastMessage) -> None:
        self.stats.to_deliveries += 1
        self.to_delivery_log.append(message.message_id)
        for listener in self._to_listeners:
            listener(message)
