"""Observability: life-of-a-transaction tracing and a metrics registry.

Two layers, each usable alone:

* :mod:`~repro.observability.trace` — life-of-a-transaction tracing
  (:class:`TransactionTracer`), off by default, exportable as JSONL and
  Chrome trace-event format;
* :mod:`~repro.observability.registry` — :class:`MetricsRegistry` over the
  per-site collectors plus :func:`derive_metrics` (opt/TO divergence rate,
  per-phase latency breakdown, abort-by-cause).

Host performance is measured in one place, ``python -m bench``
(``bench/README.md``).  See ``docs/observability.md`` for the full catalogue
and workflows.
"""

from .registry import (
    ABORT_CAUSES,
    FLAT_SHARD_LABEL,
    PHASE_LATENCIES,
    DerivedMetrics,
    MetricsRegistry,
    build_registry,
    derive_metrics,
)
from .trace import TraceError, TraceEvent, TraceSpan, TransactionTracer

__all__ = [
    "ABORT_CAUSES",
    "DerivedMetrics",
    "FLAT_SHARD_LABEL",
    "MetricsRegistry",
    "PHASE_LATENCIES",
    "TraceError",
    "TraceEvent",
    "TraceSpan",
    "TransactionTracer",
    "build_registry",
    "derive_metrics",
]
