"""Virtual clock for the discrete-event simulation.

All latency-sensitive experiments of the paper (Figure 1, the overlap claim)
depend on precise timing.  Using a virtual clock instead of wall-clock time
makes every experiment deterministic and repeatable.
"""

from __future__ import annotations

import math

from ..errors import ClockError


class VirtualClock:
    """A monotonically advancing virtual clock measured in seconds.

    The clock is owned by the simulation kernel; components read it through
    :meth:`now` and never advance it themselves.
    """

    def __init__(self, start: float = 0.0) -> None:
        # A NaN start fails both comparisons, so it is rejected too.
        if not 0.0 <= start < math.inf:
            raise ClockError(f"clock must start at a finite time >= 0, not {start!r}")
        self._now = float(start)

    def now(self) -> float:
        """Return the current virtual time in seconds."""
        return self._now

    def advance_to(self, timestamp: float) -> None:
        """Advance the clock to ``timestamp``.

        Raises :class:`ClockError` if the timestamp lies in the past or is
        NaN; the simulation kernel never rewinds time.
        """
        if not timestamp >= self._now:
            raise ClockError(
                f"cannot move clock backwards from {self._now!r} to {timestamp!r}"
            )
        self._now = float(timestamp)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now={self._now!r})"


def milliseconds(value: float) -> float:
    """Convert ``value`` milliseconds into the clock unit (seconds)."""
    return value / 1_000.0


def to_milliseconds(seconds: float) -> float:
    """Convert seconds into milliseconds (for reporting)."""
    return seconds * 1_000.0
