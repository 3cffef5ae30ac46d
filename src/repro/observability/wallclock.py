"""The declared wall-clock boundary: host durations, never simulated time.

Simulation logic must never read the machine's clock — every timestamp
inside a run comes from ``kernel.now()`` so that same-seed runs are
bit-identical (the ``no-wallclock`` lint rule enforces this).  Measuring how
long the *host* took to run something — a sweep's ``elapsed_seconds`` — is
the one legitimate exception, and it needs a clock that never steps
backwards, so the boundary reads :func:`time.perf_counter`, not the epoch.

This module is that exception's single home.  Components that time
themselves accept an injectable ``clock: Callable[[], float]`` defaulting to
:data:`WALL_CLOCK`; tests inject a fake.  The module is allowlisted in the
``no-wallclock`` rule — wall-clock reads anywhere else in ``src/repro`` are
lint findings.
"""

from __future__ import annotations

import time
from typing import Callable

#: The sanctioned wall-clock callable: a monotonic counter in seconds, only
#: meaningful as the difference of two reads.
WALL_CLOCK: Callable[[], float] = time.perf_counter


def wall_clock() -> float:
    """Read the monotonic host clock (durations only — never sim logic)."""
    return WALL_CLOCK()
