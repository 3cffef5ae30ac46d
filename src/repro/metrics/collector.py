"""Metric collection primitives used by replica managers and experiments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .stats import Summary, summarize


class Counter:
    """A named monotonically increasing counter."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def increment(self, amount: int = 1) -> None:
        """Add ``amount`` (defaults to 1)."""
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class LatencyRecorder:
    """Records individual latency samples (seconds) under a name."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.samples: List[float] = []

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
    """A registry of counters, latency recorders and gauges for one component."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._counters: Dict[str, Counter] = {}
        self._latencies: Dict[str, LatencyRecorder] = {}
        self._gauges: Dict[str, Gauge] = {}

    # -------------------------------------------------------------- counters
    def counter(self, name: str) -> Counter:
        """Return (creating if needed) the counter called ``name``."""
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def increment(self, name: str, amount: int = 1) -> None:
        """Increment the counter called ``name``."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        counter.value += amount

    def count(self, name: str) -> int:
        """Return the current value of the counter (0 if never incremented)."""
        counter = self._counters.get(name)
        return counter.value if counter else 0

    # ------------------------------------------------------------- latencies
    def latency(self, name: str) -> LatencyRecorder:
        """Return (creating if needed) the latency recorder called ``name``."""
        if name not in self._latencies:
            self._latencies[name] = LatencyRecorder(name)
        return self._latencies[name]

    def record_latency(self, name: str, value: float) -> None:
        """Record one latency sample under ``name``."""
        recorder = self._latencies.get(name)
        if recorder is None:
            recorder = self._latencies[name] = LatencyRecorder(name)
        recorder.samples.append(value)

    def latency_summary(self, name: str) -> Summary:
        """Return the summary of the latency recorder (empty if absent)."""
        recorder = self._latencies.get(name)
        return recorder.summary() if recorder else Summary.empty()

    # ---------------------------------------------------------------- gauges
    def gauge(self, name: str) -> Gauge:
        """Return (creating if needed) the gauge called ``name``."""
        if name not in self._gauges:
            self._gauges[name] = Gauge(name)
        return self._gauges[name]

    def set_gauge(self, name: str, value: float) -> None:
        """Set the gauge called ``name`` to ``value``."""
        self.gauge(name).set(value)

    def gauge_max(self, name: str) -> float:
        """High-water mark of the gauge (0.0 if never set)."""
        gauge = self._gauges.get(name)
        return gauge.maximum if gauge else 0.0

    # ---------------------------------------------------------------- export
    def snapshot(self) -> Dict[str, object]:
        """Return all counters, latency summaries and gauges as a dictionary."""
        return {
            "counters": {name: counter.value for name, counter in sorted(self._counters.items())},
            "latencies": {
                name: recorder.summary() for name, recorder in sorted(self._latencies.items())
            },
            "gauges": {
                name: {"value": gauge.value, "max": gauge.maximum}
                for name, gauge in sorted(self._gauges.items())
            },
        }

    def counters(self) -> Dict[str, int]:
        """Return all counter values."""
        return {name: counter.value for name, counter in sorted(self._counters.items())}
