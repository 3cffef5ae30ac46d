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
from array import array
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Set, Tuple,
    TypeVar,
)

from ..simulation.kernel import cover_serial, serial_rows
from ..types import MessageId, SiteId

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..observability.trace import TransactionTracer
    from ..simulation.kernel import SimulationKernel

_Endpoint = TypeVar("_Endpoint", bound="AtomicBroadcastEndpoint")

#: The kernel's id family of broadcast message ids: the sending site draws
#: one with ``kernel.draw_id(BROADCAST_IDS, origin)``.
BROADCAST_IDS = "broadcast"


def noop_fill_id(position: int) -> MessageId:
    """Synthetic message id of the no-op filling definitive ``position``:
    negative, so it is no serial."""
    return -1 - position


def is_noop_fill_id(message_id: MessageId) -> bool:
    """Whether ``message_id`` names a gap-fill no-op rather than a payload."""
    return message_id < 0


def message_name(kernel: "SimulationKernel", message_id: MessageId) -> str:
    """The printed name of ``message_id``: ``m:<origin>:<serial>``, or
    ``noop:<position>`` for a gap fill."""
    if message_id < 0:
        return f"noop:{-1 - message_id}"
    return f"m:{kernel.origin_of(BROADCAST_IDS, message_id)}:{message_id}"


class NoOpFill(NamedTuple):
    """Payload delivered for a definitive position declared dead.

    After a whole-group crash the data of an already-ordered message can be
    lost at every member; the coordinator then fills the position with a
    no-op so delivery can proceed (the origin client re-submits the lost
    request under a fresh message id).  Replica managers advance their
    snapshot frontier past the position but install nothing.
    """

    position: int


#: A block of unset positions and times for an endpoint's number columns.
_UNSET_POSITIONS = array("q", [-1]) * 64
_UNSET_TIMES = array("d", [-1.0]) * 64

#: Listener of an Opt-delivery: ``(message_id, payload)``.
OptListener = Callable[[MessageId, Any], None]
#: Listener of a TO-delivery: ``(payload, definitive position, ordering
#: delay)``, the delay being the time since this site Opt-delivered.
ToListener = Callable[[Any, int, float], None]


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
    #: The kernel that drew the message ids (set by each endpoint class).
    kernel: "SimulationKernel"

    def __init__(self, site_id: SiteId) -> None:
        self.site_id = site_id
        self.stats = BroadcastStats()
        #: Optional :class:`~repro.observability.trace.TransactionTracer`;
        #: ``None`` (the default) keeps the endpoint trace-free.
        self.tracer: Optional[TransactionTracer] = None
        self._opt_listeners: List[OptListener] = []
        self._to_listeners: List[ToListener] = []
        #: Delivery state as columns, one row per message this site learned
        #: of.  ``row_of[serial]`` is a message's latest row (-1 for none),
        #: and a gap fill's is in ``noop_row_of``; neither forgets a row, so
        #: every id in the delivery logs has one (:meth:`row`).  Rows below
        #: ``_first_live_row`` died with an earlier incarnation (a crash
        #: ends one), and a row is live only while its id points at it.
        #: The payload is the one object every site received.  -1 marks a
        #: position or time not reached yet.
        self.row_of = serial_rows()
        self.noop_row_of: Dict[MessageId, int] = {}
        self.payloads: List[Any] = []
        #: This site's tentative (receipt) position.
        self.local_positions = array("q")
        self.definitive_positions = array("q")
        self.opt_times = array("d")
        self.to_times = array("d")
        self._first_live_row = 0
        #: Per-site log of delivered message ids, in delivery order.  Used
        #: by the property checker (Global/Local Order, Agreement).
        self.opt_delivery_log = array("q")
        self.to_delivery_log = array("q")
        #: Messages this site obtained through state transfer instead of
        #: delivery (a recovered site rejoins past them).  The property
        #: checker counts them as delivered.
        self.transfer_covered: Set[MessageId] = set()
        #: Messages whose tentative/definitive delivery was voided by a crash
        #: of this site (the paper's agreement properties bind correct sites
        #: only; a crashed incarnation is excused).
        self.crash_voided: Set[MessageId] = set()

    # ------------------------------------------------------------------ rows
    def _add_row(self, message_id: MessageId, payload: Any) -> int:
        """Start a live row for a message (received, nothing delivered yet)."""
        row = len(self.payloads)
        if message_id < 0:
            self.noop_row_of[message_id] = row
        else:
            row_of = self.row_of
            if message_id >= len(row_of):
                cover_serial(row_of, message_id)
            row_of[message_id] = row
        self.payloads.append(payload)
        if row == len(self.opt_times):
            # The number columns grow by a block of unset rows at a time.
            self.local_positions.extend(_UNSET_POSITIONS)
            self.definitive_positions.extend(_UNSET_POSITIONS)
            self.opt_times.extend(_UNSET_TIMES)
            self.to_times.extend(_UNSET_TIMES)
        return row

    def row(self, message_id: MessageId) -> int:
        """The latest row of ``message_id``, in any incarnation, or -1."""
        if message_id < 0:
            return self.noop_row_of.get(message_id, -1)
        try:
            return self.row_of[message_id]
        except IndexError:
            return -1

    def rows_of(self, message_ids: Iterable[MessageId]) -> "array[int]":
        """The latest row of each of ``message_ids``, all of which have one
        (every id in the delivery logs does)."""
        row_of, noop_row_of = self.row_of, self.noop_row_of
        return array(
            "i", (row_of[mid] if mid >= 0 else noop_row_of[mid] for mid in message_ids)
        )

    def _live_row(self, message_id: MessageId) -> int:
        """This incarnation's row of ``message_id``, or -1."""
        # :meth:`row`, inline: batch members take this path on every delivery.
        if message_id < 0:
            row = self.noop_row_of.get(message_id, -1)
        else:
            try:
                row = self.row_of[message_id]
            except IndexError:
                row = -1
        return row if row >= self._first_live_row else -1

    def _live_rows(self) -> List[Tuple[int, MessageId]]:
        """This incarnation's ``(row, id)`` pairs, in the order rows were added."""
        first = self._first_live_row
        pairs = [(row, serial) for serial, row in enumerate(self.row_of) if row >= first]
        pairs += [(row, noop) for noop, row in self.noop_row_of.items() if row >= first]
        pairs.sort()
        return pairs

    def name(self, message_id: MessageId) -> str:
        """The printed name of ``message_id`` (see :func:`message_name`)."""
        return message_name(self.kernel, message_id)

    # ------------------------------------------------------- crash recovery
    def note_transfer_covered(self, message_id: Optional[MessageId]) -> None:
        """Record that ``message_id`` was obtained via state transfer."""
        if message_id is not None:
            self.transfer_covered.add(message_id)

    def _strike_undurable_deliveries(self, committed_through: int) -> None:
        """Void every delivery the crash destroyed and end the incarnation.

        Opt-delivered-but-unconfirmed messages died with the process, and so
        did TO-deliveries beyond the durable commit frontier
        ``committed_through`` — exactly the tail of ``to_delivery_log`` whose
        definitive positions exceed the frontier (delivery is position-
        ordered, so the undurable suffix is contiguous).  Those entries are
        struck from the log (the new incarnation re-delivers them) and the
        whole set is recorded as crash-voided for the property checker.
        Every row is dead afterwards.
        """
        opt_times, to_times = self.opt_times, self.to_times
        voided = {
            message_id
            for row, message_id in self._live_rows()
            if opt_times[row] >= 0.0 and to_times[row] < 0.0
        }
        log = self.to_delivery_log
        while log:
            row = self._live_row(log[-1])
            if row < 0 or self.definitive_positions[row] <= committed_through:
                break
            voided.add(log.pop())
        self.crash_voided.update(voided)
        self._first_live_row = len(self.payloads)

    # ------------------------------------------------------------------- api
    @abc.abstractmethod
    def broadcast(self, payload: Any) -> MessageId:
        """TO-broadcast ``payload`` to all sites; returns the message id."""

    def add_opt_listener(self, listener: OptListener) -> None:
        """Register a callback for Opt-deliver events at this site."""
        self._opt_listeners.append(listener)

    def add_to_listener(self, listener: ToListener) -> None:
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
    def _emit_opt_deliver(self, row: int, message_id: MessageId, now: float) -> None:
        self.opt_times[row] = now
        self.stats.opt_deliveries += 1
        self.opt_delivery_log.append(message_id)
        payload = self.payloads[row]
        for listener in self._opt_listeners:
            listener(message_id, payload)

    def _emit_to_deliver(self, row: int, message_id: MessageId, position: int, now: float) -> None:
        self.definitive_positions[row] = position
        self.to_times[row] = now
        self.stats.to_deliveries += 1
        self.to_delivery_log.append(message_id)
        payload, delay = self.payloads[row], now - self.opt_times[row]
        for listener in self._to_listeners:
            listener(payload, position, delay)
