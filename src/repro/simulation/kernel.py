"""The discrete-event simulation kernel.

The kernel owns the virtual clock and the event queue, and drives every other
component: network transports schedule message deliveries, replica managers
schedule transaction completions, workload generators schedule client
requests.  Everything that happens in a simulation happens inside an event
callback executed by :meth:`SimulationKernel.run`.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from functools import partial
from typing import Callable, DefaultDict, Iterator, Optional

from ..errors import SimulationError
from .clock import VirtualClock
from .events import Event, EventCallback, EventQueue
from .randomness import RandomSource


class SimulationKernel:
    """Single-threaded deterministic discrete-event scheduler.

    Parameters
    ----------
    seed:
        Master seed for all random streams pulled from :attr:`random`.
    start_time:
        Initial virtual time (seconds).
    """

    def __init__(self, seed: int = 0, start_time: float = 0.0) -> None:
        self.clock = VirtualClock(start_time)
        self.random = RandomSource(seed)
        self._queue = EventQueue()
        self._running = False
        self._stopped = False
        self._events_executed = 0
        self._trace_hooks: list[Callable[[Event], None]] = []
        #: One counter per id family (``"transaction"``, ``"envelope"``, ...),
        #: from 1: two same-seed simulations in one process get the same ids.
        self.serials: DefaultDict[str, Iterator[int]] = defaultdict(
            partial(itertools.count, 1)
        )

    # ------------------------------------------------------------------ time
    def now(self) -> float:
        """Return the current virtual time in seconds."""
        # The kernel owns its clock; reading the field directly makes the
        # most frequent query of the stack one call instead of two.
        return self.clock._now

    # ------------------------------------------------------------ scheduling
    def schedule(
        self,
        delay: float,
        callback: EventCallback,
        *,
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        Negative and NaN delays are rejected (a NaN timestamp would silently
        break the heap order); a zero delay runs the callback at the current
        time but strictly after all callbacks already scheduled for that time
        (FIFO among equal timestamps).
        """
        if not delay >= 0.0:
            raise SimulationError(f"cannot schedule an event {delay!r}s from now")
        return self._queue.push(
            self.clock._now + delay, callback, priority=priority, label=label
        )

    def schedule_at(
        self,
        timestamp: float,
        callback: EventCallback,
        *,
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` at the absolute virtual time ``timestamp``."""
        if not timestamp >= self.now():
            raise SimulationError(
                f"cannot schedule at {timestamp!r}, which is not now ({self.now()!r}) or later"
            )
        return self._queue.push(timestamp, callback, priority=priority, label=label)

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event."""
        self._queue.cancel(event)

    def add_trace_hook(self, hook: Callable[[Event], None]) -> None:
        """Register a hook called before each event executes (for debugging)."""
        self._trace_hooks.append(hook)

    # --------------------------------------------------------------- running
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run the simulation.

        Parameters
        ----------
        until:
            Stop once the next event would be after this virtual time.  The
            clock is then advanced to ``until`` — unless the run ended early
            (``stop()`` or ``max_events``) with live events at or before
            ``until`` still queued, which a later ``run`` must execute first.
        max_events:
            Safety limit on the number of events to execute.

        Returns the number of events executed by this call.
        """
        if self._running:
            raise SimulationError("kernel.run() is not reentrant")
        self._running = True
        self._stopped = False
        executed = 0
        # Hot loop: bind everything once.  ``pop_due`` applies the ``until``
        # horizon while popping (one heap traversal per event), the clock is
        # advanced through the bound method, and the trace-hook loop is
        # skipped entirely in the common no-hooks case.
        pop_due = self._queue.pop_due
        advance = self.clock.advance_to
        hooks = self._trace_hooks
        try:
            # repro: hot-path (kernel dispatch loop — lint bans allocation here)
            while not self._stopped:
                if max_events is not None and executed >= max_events:
                    break
                event = pop_due(until)
                if event is None:
                    break
                advance(event.time)
                if hooks:
                    for hook in hooks:
                        hook(event)
                event.callback()
                executed += 1
        finally:
            self._running = False
            self._events_executed += executed
        if until is not None and self.clock._now < until:
            next_time = self._queue.peek_time()
            if next_time is None or next_time > until:
                self.clock.advance_to(until)
        return executed

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        """Run until no events remain (bounded by ``max_events``)."""
        return self.run(max_events=max_events)

    def stop(self) -> None:
        """Request the current :meth:`run` call to stop after this event."""
        self._stopped = True

    # ------------------------------------------------------------ inspection
    @property
    def pending_events(self) -> int:
        """Number of live events still scheduled."""
        return len(self._queue)

    @property
    def events_executed(self) -> int:
        """Total number of events executed over the kernel's lifetime."""
        return self._events_executed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimulationKernel(now={self.now():.6f}, "
            f"pending={self.pending_events}, executed={self.events_executed})"
        )
