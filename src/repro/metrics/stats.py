"""Summary statistics helpers used by metrics and by the experiment harness."""

from __future__ import annotations

import heapq
import math
from array import array
from collections import abc
from itertools import chain, islice
from typing import (
    Collection,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Sequence,
    Tuple,
    Union,
)


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


#: The percentiles a :class:`Summary` reports, in field order.
_PERCENTILES = (0.50, 0.90, 0.95, 0.99)


def percentile(values: Sequence[float], fraction: float) -> float:
    """Return the ``fraction`` percentile (0..1) using linear interpolation."""
    if not values:
        return 0.0
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"percentile fraction must be in [0, 1], got {fraction!r}")
    return _ranked(sorted(values), len(values), fraction)


def _bounds(count: int, fraction: float) -> Tuple[int, int]:
    """The two ranks the ``fraction`` percentile of ``count`` values lies between."""
    rank = fraction * (count - 1)
    return int(math.floor(rank)), int(math.ceil(rank))


def _ranked(
    ordered: Union[Sequence[float], Mapping[int, float]], count: int, fraction: float
) -> float:
    """The ``fraction`` percentile of ``count`` sorted values, ``ordered[rank]``."""
    lower, upper = _bounds(count, fraction)
    if lower == upper:
        return ordered[lower]
    weight = fraction * (count - 1) - lower
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
    its own, so at most one run at a time is boxed into a list of floats (32
    bytes a value, against 8).  The percentiles are read off the merge of the
    sorted runs as it streams past: only the values at their ranks are kept.
    """
    sample = _Concatenated(list(runs))
    count = len(sample)
    if not count:
        return Summary.empty()
    ranks = {rank for fraction in _PERCENTILES for rank in _bounds(count, fraction)}
    merged = heapq.merge(*[array("d", sorted(run)) for run in sample.runs])
    ordered: Dict[int, float] = {
        rank: value
        for rank, value in enumerate(islice(merged, max(ranks) + 1))
        if rank in ranks
    }
    p50, p90, p95, p99 = (_ranked(ordered, count, fraction) for fraction in _PERCENTILES)
    return Summary(
        count=count,
        mean=mean(sample),
        stddev=stddev(sample),
        minimum=min(sample),
        maximum=max(sample),
        p50=p50,
        p90=p90,
        p95=p95,
        p99=p99,
    )
