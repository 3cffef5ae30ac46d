"""Heartbeat-based eventually-perfect failure detector (◇P).

Atomic broadcast in an asynchronous system needs unreliable failure
detection (Chandra & Toueg [6]).  Each site runs a :class:`FailureDetector`
that multicasts heartbeats and suspects peers whose heartbeats stop arriving
within the current timeout.  Wrong suspicions are corrected — and the timeout
increased — when a heartbeat from a suspected site arrives, giving the
eventual accuracy the optimistic atomic broadcast's failover relies on.
The detectors feed :class:`~repro.failure.suspicion.SuspicionFailoverGovernor`,
which elects the coordinator from their suspicions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

from ..network.message import Envelope
from ..network.transport import NetworkTransport
from ..simulation.kernel import SimulationKernel
from ..simulation.timers import PeriodicTimer
from ..types import SiteId

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from .suspicion import FailureDetectionConfig

#: Callback invoked with ``(peer, suspected)`` on every suspicion change.
SuspicionListener = Callable[[SiteId, bool], None]

#: Kind tag used for heartbeat envelopes.
HEARTBEAT_KIND = "failure-detector.heartbeat"


class Heartbeat(NamedTuple):
    """Payload of a heartbeat message."""

    origin: SiteId
    sequence: int


class FailureDetector:
    """Per-site ◇P failure detector.

    Parameters
    ----------
    config:
        The heartbeat interval, initial suspicion timeout and timeout
        increment (see :class:`~repro.failure.suspicion.FailureDetectionConfig`).
    group:
        The membership this detector monitors and heartbeats.  ``None``
        (default) means every site registered with the transport; a sharded
        deployment passes its own replica group so shards sharing one
        transport neither heartbeat nor suspect each other's sites.
    """

    def __init__(
        self,
        kernel: SimulationKernel,
        transport: NetworkTransport,
        site_id: SiteId,
        config: "FailureDetectionConfig",
        *,
        group: Optional[Iterable[SiteId]] = None,
    ) -> None:
        self.kernel = kernel
        self.transport = transport
        self.site_id = site_id
        self.initial_timeout = config.initial_timeout
        self.timeout_increment = config.timeout_increment
        self._group: Optional[Tuple[SiteId, ...]] = (
            tuple(sorted(group)) if group is not None else None
        )
        self._sequence = 0
        self._last_heard: Dict[SiteId, float] = {}
        self._last_sequence: Dict[SiteId, int] = {}
        self._timeouts: Dict[SiteId, float] = {}
        self._suspected: Set[SiteId] = set()
        self._listeners: List[SuspicionListener] = []
        self._timer = PeriodicTimer(
            kernel,
            config.heartbeat_interval,
            self._on_tick,
            label=f"fd-tick:{site_id}",
            start_immediately=True,
        )
        self._started = False

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Start sending heartbeats and monitoring peers."""
        if self._started:
            return
        self._started = True
        now = self.kernel.now()
        for peer in self._members():
            if peer != self.site_id:
                self._last_heard.setdefault(peer, now)
                self._timeouts.setdefault(peer, self.initial_timeout)
        self._timer.start()

    def stop(self) -> None:
        """Stop the detector (used when the owning site crashes)."""
        self._started = False
        self._timer.stop()

    def reset(self) -> None:
        """Forget all suspicion state (used when the owning site recovers).

        Listeners are told about every suspicion being lifted — silently
        clearing ``_suspected`` would leave failover logic driven by the
        listeners believing peers are still down after this site recovered.
        """
        now = self.kernel.now()
        for peer in list(self._last_heard):
            self._last_heard[peer] = now
        previously_suspected = sorted(self._suspected)
        self._suspected.clear()
        for peer in previously_suspected:
            self._notify(peer, suspected=False)

    # --------------------------------------------------------------- queries
    def _members(self) -> List[SiteId]:
        """The membership this detector monitors (group or whole transport)."""
        if self._group is not None:
            return list(self._group)
        return self.transport.sites()

    def is_suspected(self, peer: SiteId) -> bool:
        """Return whether ``peer`` is currently suspected to have crashed."""
        return peer in self._suspected

    # ------------------------------------------------------------- listeners
    def add_listener(self, listener: SuspicionListener) -> None:
        """Register a callback invoked on every suspicion change."""
        self._listeners.append(listener)

    # ------------------------------------------------------------- messaging
    def on_envelope(self, envelope: Envelope) -> bool:
        """Process an incoming envelope; returns True if it was a heartbeat."""
        if envelope.kind != HEARTBEAT_KIND:
            return False
        heartbeat = envelope.payload
        if not isinstance(heartbeat, Heartbeat):
            return False
        self._on_heartbeat(heartbeat)
        return True

    # -------------------------------------------------------------- internal
    def _on_tick(self) -> None:
        if not self._started:
            return
        self._sequence += 1
        self.transport.multicast(
            self.site_id,
            Heartbeat(origin=self.site_id, sequence=self._sequence),
            kind=HEARTBEAT_KIND,
            destinations=self._group,
            include_sender=False,
        )
        self._check_timeouts()

    def _on_heartbeat(self, heartbeat: Heartbeat) -> None:
        peer = heartbeat.origin
        # Heartbeats can arrive out of order (a partition heal flushes every
        # held envelope at once).  Only a heartbeat *newer* than anything seen
        # from the peer is evidence of liveness; a stale one must not rewind
        # ``_last_heard`` or lift a suspicion.
        if heartbeat.sequence <= self._last_sequence.get(peer, 0):
            return
        self._last_sequence[peer] = heartbeat.sequence
        self._last_heard[peer] = self.kernel.now()
        self._timeouts.setdefault(peer, self.initial_timeout)
        if peer in self._suspected:
            # False suspicion: trust again and be more patient next time.
            self._suspected.discard(peer)
            self._timeouts[peer] += self.timeout_increment
            self._notify(peer, suspected=False)

    def _check_timeouts(self) -> None:
        now = self.kernel.now()
        for peer, last in self._last_heard.items():
            if peer in self._suspected:
                continue
            timeout = self._timeouts.get(peer, self.initial_timeout)
            if now - last > timeout:
                self._suspected.add(peer)
                self._notify(peer, suspected=True)

    def _notify(self, peer: SiteId, *, suspected: bool) -> None:
        for listener in self._listeners:
            listener(peer, suspected)
