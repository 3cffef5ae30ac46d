"""Metric collection and summary statistics."""

from .collector import Gauge, LatencyRecorder, MetricsCollector
from .stats import (
    Summary,
    confidence_interval_95,
    mean,
    percentile,
    ratio,
    sample_stddev,
    stddev,
    summarize,
)

__all__ = [
    "Gauge",
    "LatencyRecorder",
    "MetricsCollector",
    "Summary",
    "confidence_interval_95",
    "mean",
    "percentile",
    "ratio",
    "sample_stddev",
    "stddev",
    "summarize",
]
