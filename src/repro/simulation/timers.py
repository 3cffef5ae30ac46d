"""Timer helpers built on top of the simulation kernel.

Protocols use :class:`PeriodicTimer` for heartbeat-style activity (failure
detector probes, workload generators); a one-shot delay is a plain
``kernel.schedule``.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..errors import SimulationError
from .events import Event
from .kernel import SimulationKernel


class PeriodicTimer:
    """Invokes a callback every ``interval`` seconds until stopped."""

    def __init__(
        self,
        kernel: SimulationKernel,
        interval: float,
        callback: Callable[[], None],
        *,
        label: str = "periodic",
        start_immediately: bool = False,
    ) -> None:
        if not interval > 0.0:
            raise SimulationError("periodic timer interval must be positive")
        self._kernel = kernel
        self._interval = interval
        self._callback = callback
        self._label = label
        self._event: Optional[Event] = None
        self._running = False
        self._fire_immediately = start_immediately

    @property
    def interval(self) -> float:
        """The firing interval in seconds."""
        return self._interval

    def start(self) -> None:
        """Start (or restart) the timer."""
        if self._running:
            return
        self._running = True
        delay = 0.0 if self._fire_immediately else self._interval
        self._event = self._kernel.schedule(delay, self._tick, label=self._label)

    def stop(self) -> None:
        """Stop the timer; pending firings are cancelled."""
        self._running = False
        if self._event is not None:
            self._kernel.cancel(self._event)
            self._event = None

    def _tick(self) -> None:
        if not self._running:
            return
        self._event = self._kernel.schedule(self._interval, self._tick, label=self._label)
        self._callback()
