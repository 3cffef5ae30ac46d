"""Metric collection and summary statistics."""

from .collector import Gauge, LatencyRecorder, MetricsCollector
from .stats import (
    Summary,
    mean,
    percentile,
    stddev,
    summarize,
)

__all__ = [
    "Gauge",
    "LatencyRecorder",
    "MetricsCollector",
    "Summary",
    "mean",
    "percentile",
    "stddev",
    "summarize",
]
