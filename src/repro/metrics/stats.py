"""Summary statistics helpers used by metrics and by the experiment harness."""

from __future__ import annotations

import math
from typing import Iterable, List, NamedTuple, Sequence


class Summary(NamedTuple):
    """Summary statistics of a sample."""

    count: int
    mean: float
    stddev: float
    minimum: float
    maximum: float
    p50: float
    p90: float
    p95: float
    p99: float

    @staticmethod
    def empty() -> "Summary":
        """A summary describing an empty sample."""
        return Summary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def percentile(values: Sequence[float], fraction: float) -> float:
    """Return the ``fraction`` percentile (0..1) using linear interpolation."""
    if not values:
        return 0.0
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"percentile fraction must be in [0, 1], got {fraction!r}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = fraction * (len(ordered) - 1)
    lower = int(math.floor(rank))
    upper = int(math.ceil(rank))
    if lower == upper:
        return ordered[lower]
    weight = rank - lower
    low, high = ordered[lower], ordered[upper]
    # Rounding (e.g. a subnormal halved to 0.0) must not leave [low, high].
    return min(max(low * (1.0 - weight) + high * weight, low), high)


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (0.0 for an empty sample)."""
    return sum(values) / len(values) if values else 0.0


def stddev(values: Sequence[float]) -> float:
    """Population standard deviation (0.0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    sample_mean = mean(values)
    variance = sum((value - sample_mean) ** 2 for value in values) / len(values)
    return math.sqrt(variance)


def summarize(values: Iterable[float]) -> Summary:
    """Compute a :class:`Summary` of ``values``."""
    sample: List[float] = list(values)
    if not sample:
        return Summary.empty()
    return Summary(
        count=len(sample),
        mean=mean(sample),
        stddev=stddev(sample),
        minimum=min(sample),
        maximum=max(sample),
        p50=percentile(sample, 0.50),
        p90=percentile(sample, 0.90),
        p95=percentile(sample, 0.95),
        p99=percentile(sample, 0.99),
    )
