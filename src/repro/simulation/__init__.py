"""Deterministic discrete-event simulation substrate.

The substrate replaces the paper's physical cluster (4 UltraSPARC machines on
a 10 Mbit/s Ethernet) with a virtual-time simulation so that every
latency-sensitive experiment is exactly reproducible.
"""

from .clock import VirtualClock, milliseconds, to_milliseconds
from .events import Event, EventQueue
from .kernel import SimulationKernel
from .randomness import RandomSource, RandomStream
from .timers import PeriodicTimer

__all__ = [
    "VirtualClock",
    "Event",
    "EventQueue",
    "SimulationKernel",
    "RandomSource",
    "RandomStream",
    "PeriodicTimer",
    "milliseconds",
    "to_milliseconds",
]
