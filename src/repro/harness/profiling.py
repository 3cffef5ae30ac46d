"""The kernel dispatch floor: what one event costs on this host.

:func:`profile_event_loop` runs a self-rescheduling timer chain that
exercises only ``schedule`` → heap → dispatch, with an empty callback body,
and reports the mean host time per event.  ``bench/probes.py`` reads it as
the ``simulation.probe_event_us`` probe; host time is the benchmark's
business (``python -m bench``, ``bench/README.md``).  It reads the
monotonic host counter, :func:`time.perf_counter`, before and after the
run: a measurement of the run, never an input to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

from ..simulation.kernel import SimulationKernel


@dataclass
class HotpathProfile:
    """Host-time cost of one measured dispatch-floor run."""

    events: int
    wall_seconds: float

    @property
    def microseconds_per_event(self) -> float:
        """Mean host cost of one kernel event, in microseconds."""
        return 1_000_000.0 * self.wall_seconds / self.events


def profile_event_loop(event_count: int, *, seed: int = 0) -> HotpathProfile:
    """Measure the bare kernel dispatch floor.

    One self-rescheduling callback fires until ``event_count`` events have
    executed; its body does nothing but reschedule, so the measured cost is
    queue + clock + dispatch only.
    """
    kernel = SimulationKernel(seed=seed)
    remaining = [event_count]

    def tick() -> None:
        remaining[0] -= 1
        if remaining[0] > 0:
            kernel.schedule(0.000001, tick)

    kernel.schedule(0.0, tick)
    started = perf_counter()
    executed = kernel.run_until_idle()
    return HotpathProfile(events=executed, wall_seconds=perf_counter() - started)
