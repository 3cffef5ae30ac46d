"""Batching layer over an atomic broadcast endpoint.

At high submission rates the per-message cost of the ordering protocol — one
data multicast plus one order/confirmation multicast per transaction, each
occupying the shared medium for a frame time — dominates the run.  The
paper's own outlook (Section 6) and the classical group-communication
literature both point at the remedy: *batching*.  A
:class:`BatchingEndpoint` wraps the ordering endpoint (in optimistic or
conservative delivery mode) and coalesces the payloads submitted within a
configurable time/size window into one inner *batch* message, amortising the
ordering cost over all batch members.

The wrapper preserves the semantics the transaction layer depends on:

* **Per-message optimistic delivery.**  When the inner endpoint
  Opt-delivers a batch, the wrapper Opt-delivers every member individually,
  in batch order, so the OTP scheduler starts executing each transaction as
  early as it would have without batching (plus at most the coalescing
  window at the origin).
* **TO-delivery order within a batch.**  Members of a batch are
  TO-delivered in their batch order, and batches in the inner definitive
  order; every member receives its own *outer* definitive position.  The
  outer position sequence is exactly the unbatched one (0, 1, 2, ...), so
  snapshot frontiers, redo-log indices and global transaction indices are
  oblivious to batching.  All sites expand batches identically because they
  TO-deliver the same batches in the same inner order.
* **Crash semantics.**  ``crash_reset`` drops the pending (never-flushed)
  batch with the process — an *empty flush*: the origin's unresolved client
  requests are re-submitted by the recovery protocol under fresh member
  ids.  Recovery/rejoin and state transfer treat batch members as
  individual positions: ``note_transfer_covered`` marks single members, a
  batch whose members are only partially covered by the transfer is
  re-expanded from its outer base and the already-transferred members are
  deduplicated by the replica manager like any duplicate delivery.
* **Solicit/fill.**  The gap-repair subprotocol runs at the inner (batch)
  level.  When the coordinator declares a batch position dead — nobody
  holds the data and no durable redo log covers the batch's outer base —
  the wrapper TO-delivers a single outer no-op for the whole lost batch;
  the member transactions never had individual outer positions anywhere,
  and their origins re-submit them under fresh ids.

The wrapper exposes the same listener/log surface as a raw endpoint
(``opt_delivery_log``/``to_delivery_log``/``transfer_covered``/
``crash_voided`` at *member* granularity), so the five-property checker in
:mod:`repro.verification.properties` verifies batched runs unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from ..errors import BroadcastError
from ..simulation.events import Event
from ..simulation.kernel import SimulationKernel
from ..types import MessageId, SiteId
from .interfaces import (
    AtomicBroadcastEndpoint,
    NoOpFill,
    BROADCAST_IDS,
    noop_fill_id,
)
from .optimistic import OptimisticAtomicBroadcast


@dataclass(frozen=True)
class BatchingConfig:
    """Tuning of the broadcast batching layer.

    Attributes
    ----------
    window:
        Maximum coalescing delay in seconds.  The first payload submitted
        into an empty buffer starts the window; the buffer is flushed as one
        batch when the window expires.  ``0.0`` still coalesces submissions
        made at the same virtual instant (the flush runs strictly after all
        events already scheduled for that time).
    max_batch_size:
        Flush immediately once this many payloads are buffered, bounding
        both batch latency and message size.
    """

    window: float = 0.002
    max_batch_size: int = 16

    def __post_init__(self) -> None:
        if self.window < 0.0:
            raise BroadcastError("batching window cannot be negative")
        if self.max_batch_size < 1:
            raise BroadcastError("batches must hold at least one message")


class BatchMember(NamedTuple):
    """One client payload inside a batch message."""

    message_id: MessageId
    payload: Any
    broadcast_at: float


class Batch(NamedTuple):
    """The payload of one inner broadcast: an ordered tuple of members."""

    origin: SiteId
    members: Tuple[BatchMember, ...]


class BatchingEndpoint(AtomicBroadcastEndpoint):
    """Coalesces submissions into batches over an inner broadcast endpoint.

    Parameters
    ----------
    kernel:
        The simulation kernel (used for the flush timer and timestamps).
    inner:
        The wrapped endpoint establishing the definitive *batch* order.
    config:
        Time/size window of the coalescing buffer.
    """

    def __init__(
        self,
        kernel: SimulationKernel,
        inner: OptimisticAtomicBroadcast,
        config: BatchingConfig,
    ) -> None:
        super().__init__(inner.site_id)
        self.kernel = kernel
        self.inner = inner
        self.config = config
        self._pending: List[BatchMember] = []
        self._flush_event: Optional[Event] = None
        #: Inner definitive position -> (outer base position, member count).
        #: Records how every TO-delivered batch (and inner no-op) expanded;
        #: drives the inner/outer position translation during recovery.
        self._expansions: Dict[int, Tuple[int, int]] = {}
        self._next_outer_position = 0
        #: ``(inner, outer)`` floor of this incarnation's expansion
        #: knowledge: every batch at inner positions <= ``inner`` expanded
        #: entirely below outer position ``outer``, but the individual
        #: expansions are unknown (they died with a previous incarnation).
        #: A fresh endpoint knows everything, so its floor is ``(-1, 0)``.
        self._resume_floor: Tuple[int, int] = (-1, 0)
        #: Resume point cached at crash time (see :meth:`crash_reset`).
        self._durable_resume: Tuple[int, int] = (-1, 0)
        self._outer_fill_safe: Optional[Callable[[int], bool]] = None
        inner.add_opt_listener(self._on_inner_opt)
        inner.add_to_listener(self._on_inner_to)

    # ------------------------------------------------------------------- api
    def broadcast(self, payload: Any) -> MessageId:
        """Buffer ``payload``; it is TO-broadcast with the next batch flush."""
        member = BatchMember(
            message_id=self.kernel.draw_id(BROADCAST_IDS, self.site_id),
            payload=payload,
            broadcast_at=self.kernel.now(),
        )
        self.stats.broadcasts += 1
        if self.tracer is not None:
            self.tracer.record(
                member.broadcast_at,
                "batch_enqueue",
                self.site_id,
                getattr(payload, "transaction_id", None),
                message_id=member.message_id,
                pending=len(self._pending) + 1,
            )
        self._pending.append(member)
        if len(self._pending) >= self.config.max_batch_size:
            self._flush()
        elif self._flush_event is None:
            self._flush_event = self.kernel.schedule(
                self.config.window, self._window_flush, label="batch-flush"
            )
        return member.message_id

    @property
    def pending_count(self) -> int:
        """Number of payloads currently buffered, awaiting the next flush."""
        return len(self._pending)

    # ------------------------------------------------- coordinator delegation
    @property
    def coordinator_site(self) -> SiteId:
        """The inner endpoint's current coordinator site."""
        return self.inner.coordinator_site

    def set_coordinator(self, coordinator_site: SiteId) -> None:
        """Forward a coordinator promotion to the inner endpoint."""
        self.inner.set_coordinator(coordinator_site)

    @property
    def next_position_to_assign(self) -> int:
        """The inner endpoint's next definitive (batch) position."""
        return self.inner.next_position_to_assign

    def ensure_assign_floor(self, floor: int) -> None:
        """Forward a view-change position floor to the inner endpoint."""
        self.inner.ensure_assign_floor(floor)

    @property
    def fill_safe(self) -> Optional[Callable[[int], bool]]:
        """Outer-position fill-safety hook (see the cluster facade)."""
        return self._outer_fill_safe

    @fill_safe.setter
    def fill_safe(self, hook: Optional[Callable[[int], bool]]) -> None:
        self._outer_fill_safe = hook
        self.inner.fill_safe = None if hook is None else self._inner_fill_safe

    def _inner_fill_safe(self, inner_position: int) -> bool:
        """Whether no durable redo log anywhere covers the stuck batch.

        ``_next_outer_position`` is the outer base of the batch this
        coordinator delivers *next* — so the translation is only valid when
        ``inner_position`` is exactly that batch (the coordinator's own
        delivery is stuck there, having expanded every earlier batch).  A
        solicit can also ask about a *later* position while the coordinator
        is still stuck earlier; the outer base of that batch is unknowable
        yet, so the fill is deferred (``False`` — the fill machinery
        re-checks later, once delivery has caught up to the position).
        Commits are applied in position order at every site, so if any
        (possibly crashed) site durably committed *any* member of the
        batch, its redo log covers the first one; probing the base position
        alone is sufficient.
        """
        if self._outer_fill_safe is None:
            return True
        if inner_position != self.inner._next_position_to_deliver:
            return False
        return self._outer_fill_safe(self._next_outer_position)

    # ------------------------------------------------------------- batching
    def _window_flush(self) -> None:
        """Timer-driven flush: the window event just fired, drop its handle."""
        self._flush_event = None
        self._flush()

    def _flush(self) -> None:
        if self._flush_event is not None:
            self.kernel.cancel(self._flush_event)
            self._flush_event = None
        if not self._pending:
            return
        members = tuple(self._pending)
        self._pending.clear()
        if self.tracer is not None:
            self.tracer.record(
                self.kernel.now(), "batch_flush", self.site_id, size=len(members)
            )
        self.inner.broadcast(Batch(origin=self.site_id, members=members))

    # ----------------------------------------------------- member deliveries
    def _on_inner_opt(self, message_id: MessageId, batch: Any) -> None:
        if not isinstance(batch, Batch):
            return
        now = self.kernel.now()
        for member in batch.members:
            if member.message_id in self.transfer_covered:
                continue
            row = self._live_row(member.message_id)
            if row < 0:
                row = self._add_row(member.message_id, member.payload)
            elif self.opt_times[row] >= 0.0:
                continue
            self._emit_opt_deliver(row, member.message_id, now)

    def _on_inner_to(self, payload: Any, inner_position: int, delay: float) -> None:
        now = self.kernel.now()
        if isinstance(payload, NoOpFill):
            # The coordinator declared the whole batch position dead; the
            # lost members never had outer positions anywhere, so the batch
            # collapses into a single outer no-op position.
            outer = self._next_outer_position
            self._next_outer_position += 1
            self._expansions[inner_position] = (outer, 1)
            noop_id = noop_fill_id(outer)
            row = self._add_row(noop_id, NoOpFill(position=outer))
            self.opt_times[row] = now
            self._emit_to_deliver(row, noop_id, outer, now)
            return
        if not isinstance(payload, Batch):
            return
        self._expansions[inner_position] = (
            self._next_outer_position,
            len(payload.members),
        )
        for member in payload.members:
            outer = self._next_outer_position
            self._next_outer_position += 1
            if member.message_id in self.transfer_covered:
                # The member's transaction reached this site through state
                # transfer; its outer position is consumed but not re-delivered.
                continue
            row = self._live_row(member.message_id)
            if row < 0 or self.opt_times[row] < 0.0:
                # The inner protocol guarantees Opt-before-TO for the batch,
                # so every member was opt-delivered in _on_inner_opt.
                raise BroadcastError(
                    f"batch member {self.name(member.message_id)} reached TO-delivery "
                    "without optimistic delivery"
                )
            if self.to_times[row] >= 0.0:
                continue
            self._emit_to_deliver(row, member.message_id, outer, now)

    # ------------------------------------------------------- crash recovery
    def crash_reset(self, *, committed_through: int) -> None:
        """Destroy the batching layer's volatile state (the site crashed).

        The coalescing buffer is dropped unsent (*empty flush*): its members
        were never multicast, so their ids simply vanish — the recovery
        protocol re-submits the affected client requests under fresh ids.
        Member rows and the expansion map die with the process; member
        deliveries beyond the durable outer frontier ``committed_through``
        are struck from the logs and recorded as crash-voided.  The inner
        endpoint is reset to the *batch* frontier: the last inner position
        whose expansion lies entirely within the durable outer prefix.
        """
        inner_committed, resume_outer = self._resume_point(
            self._resume_floor, self._expansions, committed_through
        )
        # Cache the resume point for a donor-less rejoin (sole survivor of a
        # whole-group outage).  The same information is recoverable by
        # scanning the durable redo log against batch memberships; caching it
        # here keeps the simulation honest without re-deriving it.
        self._durable_resume = (inner_committed, resume_outer)
        self._strike_undurable_deliveries(committed_through)
        for member in self._pending:
            self.crash_voided.add(member.message_id)
        self._pending.clear()
        if self._flush_event is not None:
            self.kernel.cancel(self._flush_event)
            self._flush_event = None
        self._expansions.clear()
        self._next_outer_position = 0
        self.inner.crash_reset(committed_through=inner_committed)

    def rejoin(
        self, donor: Optional["BatchingEndpoint"], *, committed_through: int
    ) -> None:
        """Re-register with the group at the current sequence point.

        ``committed_through`` is this site's *outer* commit frontier after
        state transfer.  The donor's expansion map translates it into the
        inner (batch) frontier: batches fully inside the transferred prefix
        are skipped, and a batch the frontier splits is re-expanded from its
        outer base — its already-transferred members are deduplicated by the
        replica manager exactly like duplicate deliveries.  Without a donor
        the resume point cached at crash time is used (the frontier cannot
        have moved since).
        """
        inner_committed, resume_outer = self._durable_resume
        if donor is not None:
            donor_inner, donor_outer = self._resume_point(
                donor._resume_floor, donor._expansions, committed_through
            )
            if donor_inner > inner_committed:
                # The usual case: the donor is at least as advanced as our
                # durable prefix.  When the donor is *behind* us instead (we
                # survived commits every live peer lost), our crash-time
                # resume point already points past everything it knows.
                inner_committed, resume_outer = donor_inner, donor_outer
            for inner_position, expansion in donor._expansions.items():
                if inner_position <= inner_committed:
                    self._expansions.setdefault(inner_position, expansion)
        self._next_outer_position = max(self._next_outer_position, resume_outer)
        self._resume_floor = (inner_committed, resume_outer)
        self.inner.rejoin(
            donor.inner if donor is not None else None,
            committed_through=inner_committed,
        )

    @staticmethod
    def _resume_point(
        floor: Tuple[int, int],
        expansions: Dict[int, Tuple[int, int]],
        committed_through: int,
    ) -> Tuple[int, int]:
        """Translate an outer frontier into ``(inner frontier, outer resume)``.

        Returns the largest inner position whose expansion lies entirely at
        or below ``committed_through`` and the outer position at which the
        next batch expands.  ``floor`` summarises the expansions a previous
        incarnation consumed without leaving a map behind (state transfer
        always covers at least that prefix, because a donor's durable
        frontier never sits below its own resume floor).  From the floor on,
        expansion knowledge is contiguous (batches are TO-delivered in inner
        order), so the walk stops at the first batch the frontier does not
        fully cover — delivery resumes by re-expanding that batch from its
        recorded base, and the replica deduplicates any member the transfer
        already installed.
        """
        inner_committed, resume_outer = -1, 0
        floor_inner, floor_outer = floor
        if floor_outer - 1 <= committed_through:
            inner_committed, resume_outer = floor_inner, floor_outer
        for inner_position in sorted(expansions):
            if inner_position <= inner_committed:
                continue
            base, size = expansions[inner_position]
            if base + size - 1 <= committed_through:
                inner_committed = inner_position
                resume_outer = base + size
            else:
                resume_outer = base
                break
        return inner_committed, resume_outer


def unwrap_endpoint(endpoint: AtomicBroadcastEndpoint) -> AtomicBroadcastEndpoint:
    """Return the ordering endpoint behind ``endpoint`` (itself if unbatched)."""
    if isinstance(endpoint, BatchingEndpoint):
        return endpoint.inner
    return endpoint
