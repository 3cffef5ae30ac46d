"""The discrete-event simulation kernel.

The kernel owns the virtual clock and the event queue, and drives every other
component: network transports schedule message deliveries, replica managers
schedule transaction completions, workload generators schedule client
requests.  Everything that happens in a simulation happens inside an event
callback executed by :meth:`SimulationKernel.run`.
"""

from __future__ import annotations

import itertools
from array import array
from collections import defaultdict
from functools import partial
from typing import Callable, DefaultDict, Dict, Iterator, List, Optional

from ..errors import SimulationError
from .clock import VirtualClock
from .events import Event, EventCallback, EventQueue
from .randomness import RandomSource

#: The most events one :meth:`SimulationKernel.run_until_idle` executes.
IDLE_EVENT_LIMIT = 10_000_000

#: Columns indexed by serial grow by whole blocks of this many entries, so a
#: run of a few thousand ids grows each a few times.
_BLOCK = 512
#: A block of unset (-1) rows.
_UNSET_ROWS = array("i", [-1]) * _BLOCK


def serial_rows() -> "array[int]":
    """A new column of rows indexed by serial: one block, every row unset."""
    return array("i", _UNSET_ROWS)


def serial_flags() -> bytearray:
    """A new column of flag bytes indexed by serial: one block, all clear."""
    return bytearray(_BLOCK)


def cover_serial(column: "array[int]", serial: int) -> None:
    """Grow the serial-indexed ``column`` by blocks of unset (-1) rows until
    it holds index ``serial``."""
    missing = serial + 1 - len(column)
    if missing > 0:
        column.extend(_UNSET_ROWS * -(-missing // _BLOCK))


def flag_serial(column: bytearray, serial: int) -> None:
    """Set ``column``'s byte of ``serial`` to 1, growing the column by a
    block or more when it is too short."""
    if serial >= len(column):
        column.extend(bytes(max(_BLOCK, serial + 1 - len(column))))
    column[serial] = 1


class SimulationKernel:
    """Single-threaded deterministic discrete-event scheduler.

    Parameters
    ----------
    seed:
        Master seed for all random streams pulled from :attr:`random`.
    """

    def __init__(self, seed: int = 0) -> None:
        self.clock = VirtualClock()
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
        #: The sites that drew ids through :meth:`draw_id`, and per id family
        #: the index in ``origins`` of the site that drew each serial, one
        #: byte per serial.  Ids travel as the bare serials; their names
        #: (``T:<origin>:<serial>``) are built from these when asked for.
        self.origins: List[str] = []
        self._origin_index: Dict[str, int] = {}
        self._serial_origins: DefaultDict[str, bytearray] = defaultdict(bytearray)

    # ------------------------------------------------------------------- ids
    def draw_id(self, family: str, origin: str) -> int:
        """Draw the next serial of ``family`` and record that ``origin`` drew it."""
        serial = next(self.serials[family])
        index = self._origin_index.get(origin)
        if index is None:
            if len(self.origins) > 255:
                raise SimulationError("more than 256 sites drew ids from one kernel")
            index = self._origin_index[origin] = len(self.origins)
            self.origins.append(origin)
        column = self._serial_origins[family]
        if serial > len(column):
            # Serial 0 is never drawn; a later gap holds serials drawn elsewhere.
            column.extend(bytes(serial - len(column)))
        column.append(index)
        return serial

    def origin_of(self, family: str, serial: int) -> str:
        """The site that drew ``serial`` of ``family`` through :meth:`draw_id`
        (``"?"`` for a serial this kernel never handed out)."""
        column = self._serial_origins[family]
        if not 0 < serial < len(column):
            return "?"
        return self.origins[column[serial]]

    # ------------------------------------------------------------------ time
    def now(self) -> float:
        """Return the current virtual time in seconds."""
        # The kernel owns its clock; reading the field directly makes the
        # most frequent query of the stack one call instead of two.
        return self.clock._now

    # ------------------------------------------------------------ scheduling
    def schedule(self, delay: float, callback: EventCallback, *, label: str = "") -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        Negative and NaN delays are rejected (a NaN timestamp would silently
        break the heap order); a zero delay runs the callback at the current
        time but strictly after all callbacks already scheduled for that time
        (FIFO among equal timestamps).
        """
        if not delay >= 0.0:
            raise SimulationError(f"cannot schedule an event {delay!r}s from now")
        return self._queue.push(self.clock._now + delay, callback, label=label)

    def schedule_at(self, timestamp: float, callback: EventCallback, *, label: str = "") -> Event:
        """Schedule ``callback`` at the absolute virtual time ``timestamp``."""
        if not timestamp >= self.clock._now:
            raise SimulationError(
                f"cannot schedule at {timestamp!r}, which is not now ({self.now()!r}) or later"
            )
        return self._queue.push(timestamp, callback, label=label)

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

    def run_until_idle(self) -> int:
        """Run until no events remain (bounded by :data:`IDLE_EVENT_LIMIT`)."""
        return self.run(max_events=IDLE_EVENT_LIMIT)

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
