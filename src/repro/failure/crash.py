"""Crash/recovery injection.

The paper's model (Section 2) allows crash failures with recovery and
excludes Byzantine behaviour.  :class:`CrashManager` drives crash and
recovery events against the transport and notifies interested components
(replica managers, failure detectors) so they can reset their state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, NamedTuple, Optional

from ..errors import NetworkError
from ..simulation.kernel import SimulationKernel
from ..network.transport import NetworkTransport
from ..types import SiteId

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..observability.trace import TransactionTracer

#: Callback invoked with ``(site_id, up)`` whenever liveness changes.
LivenessListener = Callable[[SiteId, bool], None]


class CrashEvent(NamedTuple):
    """One scheduled crash or recovery."""

    time: float
    site: SiteId
    up: bool  # False = crash, True = recover


class CrashSchedule:
    """A reproducible list of crash/recovery events."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: List[CrashEvent] = []

    def crash(self, site: SiteId, at: float) -> "CrashSchedule":
        """Add a crash of ``site`` at virtual time ``at``."""
        self.events.append(CrashEvent(time=at, site=site, up=False))
        return self

    def recover(self, site: SiteId, at: float) -> "CrashSchedule":
        """Add a recovery of ``site`` at virtual time ``at``."""
        self.events.append(CrashEvent(time=at, site=site, up=True))
        return self

    def crash_for(self, site: SiteId, at: float, duration: float) -> "CrashSchedule":
        """Crash ``site`` at ``at`` and recover it ``duration`` seconds later."""
        if duration <= 0.0:
            raise NetworkError("crash duration must be positive")
        return self.crash(site, at).recover(site, at + duration)

    def sorted_events(self) -> List[CrashEvent]:
        """Return the events ordered by time."""
        return sorted(self.events, key=lambda event: (event.time, event.site))


class CrashManager:
    """Applies a :class:`CrashSchedule` to a transport and tracks liveness."""

    def __init__(self, kernel: SimulationKernel, transport: NetworkTransport) -> None:
        self.kernel = kernel
        self.transport = transport
        self._listeners: List[LivenessListener] = []
        self._up: Dict[SiteId, bool] = {}
        self._crash_counts: Dict[SiteId, int] = {}
        #: Optional :class:`~repro.observability.trace.TransactionTracer`;
        #: records ``site_down``/``site_up`` liveness events when attached.
        self.tracer: Optional[TransactionTracer] = None

    # --------------------------------------------------------------- queries
    def is_up(self, site: SiteId) -> bool:
        """Return whether ``site`` is currently up (defaults to up)."""
        return self._up.get(site, True)

    def up_sites(self) -> List[SiteId]:
        """Return all registered sites that are currently up."""
        return [site for site in self.transport.sites() if self.is_up(site)]

    def crash_count(self, site: SiteId) -> int:
        """Number of times ``site`` has crashed so far."""
        return self._crash_counts.get(site, 0)

    # ------------------------------------------------------------- listeners
    def add_listener(self, listener: LivenessListener) -> None:
        """Register a callback invoked on every liveness change."""
        self._listeners.append(listener)

    # ------------------------------------------------------------- operation
    def apply_schedule(self, schedule: CrashSchedule) -> None:
        """Schedule every event of ``schedule`` on the kernel."""
        for event in schedule.sorted_events():
            self.kernel.schedule_at(
                event.time,
                (lambda e=event: self._apply(e)),
                label=f"{'recover' if event.up else 'crash'}:{event.site}",
            )

    def crash_now(self, site: SiteId) -> None:
        """Crash ``site`` immediately."""
        self._apply(CrashEvent(time=self.kernel.now(), site=site, up=False))

    def recover_now(self, site: SiteId) -> None:
        """Recover ``site`` immediately."""
        self._apply(CrashEvent(time=self.kernel.now(), site=site, up=True))

    def _apply(self, event: CrashEvent) -> None:
        previous = self.is_up(event.site)
        if previous == event.up:
            return
        self._up[event.site] = event.up
        if not event.up:
            self._crash_counts[event.site] = self._crash_counts.get(event.site, 0) + 1
        if self.tracer is not None:
            self.tracer.record(
                self.kernel.now(),
                "site_up" if event.up else "site_down",
                event.site,
                crash_count=self._crash_counts.get(event.site, 0),
            )
        self.transport.set_site_up(event.site, event.up)
        for listener in self._listeners:
            listener(event.site, event.up)
