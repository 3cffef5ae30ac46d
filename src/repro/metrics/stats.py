"""Summary statistics helpers used by metrics and by the experiment harness."""

from __future__ import annotations

import heapq
import math
from array import array
from collections import abc
from itertools import chain
from typing import Collection, Iterable, Iterator, List, NamedTuple, Sequence


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
    return _ranked(sorted(values), fraction)


def _ranked(ordered: Sequence[float], fraction: float) -> float:
    """The ``fraction`` percentile of the non-empty, sorted ``ordered``."""
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


def mean(values: Collection[float]) -> float:
    """Arithmetic mean (0.0 for an empty sample)."""
    return sum(values) / len(values) if values else 0.0


def stddev(values: Collection[float]) -> float:
    """Population standard deviation (0.0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    sample_mean = mean(values)
    try:
        variance = sum((value - sample_mean) ** 2 for value in values) / len(values)
    except OverflowError:  # a deviation above about 1.34e154 squared
        variance = math.inf
    if variance != math.inf:
        return math.sqrt(variance)
    # A square or their sum overflowed: scale every deviation by the largest
    # one (an infinite one is the answer).
    largest = max(abs(value - sample_mean) for value in values)
    if largest == math.inf:
        return largest
    scaled = sum(((value - sample_mean) / largest) ** 2 for value in values)
    return largest * math.sqrt(scaled / len(values))


def summarize(values: Iterable[float]) -> Summary:
    """Compute a :class:`Summary` of ``values``, sorting them once."""
    return summarize_runs([values if isinstance(values, abc.Sequence) else list(values)])


class _Concatenated:
    """Runs of values read one after another in place, without a copy."""

    def __init__(self, runs: List[Sequence[float]]) -> None:
        self.runs = runs

    def __len__(self) -> int:
        return sum(map(len, self.runs))

    def __iter__(self) -> Iterator[float]:
        return chain.from_iterable(self.runs)


def summarize_runs(runs: Iterable[Sequence[float]]) -> Summary:
    """:func:`summarize` of the runs one after another, kept as doubles.

    The runs are read in place, and each is sorted into an ``array('d')`` on
    its own before the sorted runs are merged, so at most one run at a time
    is boxed into a list of floats (32 bytes a value, against 8).
    """
    sample = _Concatenated(list(runs))
    if not sample:
        return Summary.empty()
    ordered = array("d", heapq.merge(*[array("d", sorted(run)) for run in sample.runs]))
    return Summary(
        count=len(sample),
        mean=mean(sample),
        stddev=stddev(sample),
        minimum=min(sample),
        maximum=max(sample),
        p50=_ranked(ordered, 0.50),
        p90=_ranked(ordered, 0.90),
        p95=_ranked(ordered, 0.95),
        p99=_ranked(ordered, 0.99),
    )
