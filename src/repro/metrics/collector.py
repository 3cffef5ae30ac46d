"""Metric collection primitives used by replica managers and experiments."""

from __future__ import annotations

from array import array
from collections import defaultdict
from functools import partial
from typing import DefaultDict, Dict, MutableSequence, Optional

from .stats import Summary, summarize


class LatencyRecorder:
    """Latency samples (seconds) recorded under one name."""

    def __init__(self, name: str, samples: Optional[MutableSequence[float]] = None) -> None:
        self.name = name
        self.samples: MutableSequence[float] = [] if samples is None else samples

    def record(self, value: float) -> None:
        """Add one sample."""
        self.samples.append(value)

    def summary(self) -> Summary:
        """Return summary statistics over all samples."""
        return summarize(self.samples)

    def __len__(self) -> int:
        return len(self.samples)


class Gauge:
    """A named instantaneous value that remembers its high-water mark."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.maximum = 0.0

    def set(self, value: float) -> None:
        """Set the current value (tracking the maximum ever seen)."""
        self.value = value
        if value > self.maximum:
            self.maximum = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}={self.value}, max={self.maximum})"


class MetricsCollector:
    """A registry of counters, latency samples and gauges for one component.

    The storage is public so the run phase writes it without a call:
    ``counts[name] += 1`` and ``samples[name].append(x)``.  Both are
    ``defaultdict`` instances, so an instrument comes into being at its
    first write, exactly as through :meth:`increment` /
    :meth:`record_latency`.  A run keeps every latency sample, so each name
    holds an ``array('d')``: the same doubles, eight bytes apiece instead of
    a boxed float and a list slot.  Gauges live in :attr:`gauges` (name →
    :class:`Gauge`); :meth:`set_gauge` creates one at its first set, and a
    writer holding it may update ``value`` / ``maximum`` in place.

    Reads never create an instrument: :meth:`count`, :meth:`latency` and
    :meth:`gauge_max` of a name never written return an empty, unregistered
    value, so a report leaves :meth:`snapshot` as it
    found it.  Read the storage with ``.get`` for the same reason.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.counts: DefaultDict[str, int] = defaultdict(int)
        # A ``partial`` of the C constructor: creating an instrument adds no
        # Python frame to the run phase.
        self.samples: DefaultDict[str, "array[float]"] = defaultdict(partial(array, "d"))
        self.gauges: Dict[str, Gauge] = {}

    # -------------------------------------------------------------- counters
    def increment(self, name: str, amount: int = 1) -> None:
        """Increment the counter called ``name``."""
        self.counts[name] += amount

    def count(self, name: str) -> int:
        """Return the current value of the counter (0 if never incremented)."""
        return self.counts.get(name, 0)

    # ------------------------------------------------------------- latencies
    def latency(self, name: str) -> LatencyRecorder:
        """Return a view of the samples recorded under ``name`` (empty if none)."""
        return LatencyRecorder(name, self.samples.get(name))

    def record_latency(self, name: str, value: float) -> None:
        """Record one latency sample under ``name``."""
        self.samples[name].append(value)

    # ---------------------------------------------------------------- gauges
    def set_gauge(self, name: str, value: float) -> None:
        """Set the gauge called ``name`` to ``value`` (creating it at the first set)."""
        gauge = self.gauges.get(name)
        if gauge is None:
            gauge = self.gauges[name] = Gauge(name)
        gauge.set(value)

    def gauge_max(self, name: str) -> float:
        """High-water mark of the gauge (0.0 if never set)."""
        gauge = self.gauges.get(name)
        return gauge.maximum if gauge else 0.0

    # ---------------------------------------------------------------- export
    def snapshot(self) -> Dict[str, object]:
        """Return all counters, latency summaries and gauges as a dictionary."""
        return {
            "counters": self.counters(),
            "latencies": {
                name: summarize(samples) for name, samples in sorted(self.samples.items())
            },
            "gauges": {
                name: {"value": gauge.value, "max": gauge.maximum}
                for name, gauge in sorted(self.gauges.items())
            },
        }

    def counters(self) -> Dict[str, int]:
        """Return all counter values."""
        return dict(sorted(self.counts.items()))
