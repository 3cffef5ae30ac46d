"""Event objects and the event queue used by the simulation kernel.

This module is the hottest code in the repository: every network envelope,
timer, transaction completion and chaos fault passes through one
:class:`Event` and one heap operation.  The implementation therefore trades
a little convenience for speed — measured by
``benchmarks/test_bench_kernel_hotpath.py`` and the profiling harness in
:mod:`repro.harness.profiling`:

* :class:`Event` is a hand-rolled ``__slots__`` class (not a dataclass):
  slot storage roughly halves the per-event memory and removes the
  ``__dict__`` lookup from every attribute access in the run loop.
* The heap holds ``(time, priority, sequence, event)`` tuples, so every
  sift compares floats and ints in C and never calls back into Python.
  The sequence number is unique, so a comparison never reaches the event.
* :meth:`EventQueue.pop_due` pops the next live event *and* applies the
  ``until`` horizon in one heap traversal, replacing the previous
  peek-then-pop double walk in the kernel loop.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Callable, List, Optional, Tuple

from ..errors import SimulationError

#: Signature of a callback scheduled on the kernel.  Callbacks take no
#: arguments; closures capture whatever state they need.
EventCallback = Callable[[], None]


class Event:
    """A scheduled callback (the handle returned by :meth:`EventQueue.push`).

    Events fire in ``(time, priority, sequence)`` order.  The sequence
    number breaks ties deterministically in insertion order, which keeps
    simulations reproducible even when many events share a timestamp.
    """

    __slots__ = ("time", "priority", "sequence", "callback", "label", "cancelled", "in_queue")

    def __init__(
        self,
        time: float,
        priority: int,
        sequence: int,
        callback: EventCallback,
        label: str = "",
        cancelled: bool = False,
    ) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.callback = callback
        self.label = label
        self.cancelled = cancelled
        #: Whether the event still sits in its queue's heap.  Cleared when
        #: the event is popped (fired), so a later ``cancel`` of a handle
        #: the holder kept around cannot corrupt the live-event count.
        self.in_queue = True

    def cancel(self) -> None:
        """Mark the event as cancelled; the kernel will skip it."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time!r}, prio={self.priority}, seq={self.sequence}, label={self.label!r}{state})"


class EventQueue:
    """A priority queue of :class:`Event` objects.

    The queue supports lazy cancellation: cancelled events stay in the heap
    but are skipped when popped.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._counter = itertools.count()
        self._live = 0

    def push(
        self,
        time: float,
        callback: EventCallback,
        *,
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` at ``time`` and return the event handle."""
        if not callable(callback):
            raise SimulationError("event callback must be callable")
        sequence = next(self._counter)
        event = Event(time, priority, sequence, callback, label)
        heappush(self._heap, (time, priority, sequence, event))
        self._live += 1
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the next live event, or ``None`` if empty."""
        return self.pop_due(None)

    def pop_due(self, until: Optional[float]) -> Optional[Event]:
        """Pop the next live event whose time is at most ``until``.

        A single heap traversal that discards cancelled entries, checks the
        time horizon against the heap top and removes the event — the hot
        path of :meth:`SimulationKernel.run`.  Returns ``None`` when the
        queue is empty or the next live event lies beyond ``until`` (the
        event is left in the queue in that case).
        """
        heap = self._heap
        # repro: hot-path (heap traversal under the kernel dispatch loop)
        while heap:
            event = heap[0][3]
            if event.cancelled:
                heappop(heap)
                event.in_queue = False
                continue
            if until is not None and event.time > until:
                return None
            heappop(heap)
            event.in_queue = False
            self._live -= 1
            return event
        return None

    def peek_time(self) -> Optional[float]:
        """Return the timestamp of the next live event without removing it."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heappop(heap)[3].in_queue = False
        if not heap:
            return None
        return heap[0][0]

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event.

        Cancelling an event that already fired (or was already cancelled) is
        a no-op — holders may keep a handle past the event's execution, e.g.
        a flush timer cancelling itself from its own callback.
        """
        if event.in_queue and not event.cancelled:
            event.cancelled = True
            self._live -= 1

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0
