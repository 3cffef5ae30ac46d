"""Life-of-a-transaction tracing.

A :class:`TransactionTracer` records structured events and spans emitted by
the protocol stack — submission, optimistic delivery, execution attempts,
definitive delivery, commit/abort, plus crash, recovery and gap-fill events
— against the simulation's virtual clock.  It exists to make the paper's
central mechanism *visible*: a single transaction's timeline shows exactly
where its latency went (coalescing, ordering, queueing, execution) and how
often the spontaneous order had to be repaired.

Tracing is **off by default**: components hold ``tracer = None`` and guard
every hook with a single ``is not None`` check, so the disabled fast path
adds no events, no allocations and no kernel hooks (measured by
``benchmarks/test_bench_kernel_hotpath.py``).  Enable it by passing a tracer
through :class:`~repro.core.config.ClusterConfig` /
:class:`~repro.core.config.ShardingConfig`::

    tracer = TransactionTracer()
    cluster = ReplicatedDatabase(ClusterConfig(tracer=tracer), registry)

Everything recorded is a pure function of the simulation seed, so a trace is
same-seed reproducible even across chaos runs (asserted by
``tests/test_observability.py``).  Traces export as JSONL (one event or span
per line) and as the Chrome trace-event format (``chrome://tracing`` /
Perfetto): sites become processes, transactions become tracks.
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO, Iterable, List, NamedTuple, Optional, Tuple

from ..errors import SimulationError
from ..types import SiteId, TransactionId


class TraceError(SimulationError):
    """Raised on span protocol violations (double close, end-without-begin)."""


class TraceEvent(NamedTuple):
    """One instantaneous trace event on the virtual timeline."""

    time: float
    kind: str
    site: SiteId
    transaction_id: Optional[TransactionId] = None
    attrs: Tuple[Tuple[str, Any], ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form used by the JSONL export."""
        payload: Dict[str, Any] = {
            "type": "event",
            "time": self.time,
            "kind": self.kind,
            "site": self.site,
        }
        if self.transaction_id is not None:
            payload["transaction_id"] = self.transaction_id
        payload.update(self.attrs)
        return payload


class TraceSpan:
    """A named interval in one transaction's life at one site.

    ``attempt`` numbers re-executions: a CC8 reordering abort closes the
    current ``execute`` span and the re-execution opens attempt ``n+1``.
    """

    __slots__ = ("name", "site", "transaction_id", "start", "attempt", "end", "outcome", "attrs")

    def __init__(
        self,
        name: str,
        site: SiteId,
        transaction_id: TransactionId,
        start: float,
        attempt: int,
        attrs: Dict[str, Any],
    ) -> None:
        self.name = name
        self.site = site
        self.transaction_id = transaction_id
        self.start = start
        self.attempt = attempt
        self.end: Optional[float] = None
        self.outcome: Optional[str] = None
        self.attrs = attrs

    @property
    def closed(self) -> bool:
        """Whether the span has ended."""
        return self.end is not None

    @property
    def duration(self) -> Optional[float]:
        """Span length in virtual seconds (``None`` while open)."""
        if self.end is None:
            return None
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form used by the JSONL export."""
        payload: Dict[str, Any] = {
            "type": "span",
            "name": self.name,
            "site": self.site,
            "transaction_id": self.transaction_id,
            "attempt": self.attempt,
            "start": self.start,
            "end": self.end,
            "outcome": self.outcome,
        }
        payload.update(self.attrs)
        return payload


def _span_key(name: str, site: SiteId, transaction_id: TransactionId) -> Tuple[str, SiteId, TransactionId]:
    return (name, site, transaction_id)


class TransactionTracer:
    """Collects :class:`TraceEvent` s and :class:`TraceSpan` s from a run.

    The tracer enforces the span protocol — a span is closed exactly once;
    ending a span that is not open raises :class:`TraceError` — which is
    what turns "the commit path ran twice" bugs into loud failures instead
    of silently double-counted latencies.
    """

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []
        self.spans: List[TraceSpan] = []
        self._open: Dict[Tuple[str, SiteId, TransactionId], TraceSpan] = {}
        self._closed_counts: Dict[Tuple[str, SiteId, TransactionId], int] = {}

    # --------------------------------------------------------------- events
    def record(
        self,
        at: float,
        kind: str,
        site: SiteId,
        transaction_id: Optional[TransactionId] = None,
        **attrs: Any,
    ) -> TraceEvent:
        """Record one instantaneous event at virtual time ``at``."""
        event = TraceEvent(
            time=at,
            kind=kind,
            site=site,
            transaction_id=transaction_id,
            attrs=tuple(sorted(attrs.items())),
        )
        self.events.append(event)
        return event

    # ---------------------------------------------------------------- spans
    def begin(
        self,
        at: float,
        name: str,
        site: SiteId,
        transaction_id: TransactionId,
        **attrs: Any,
    ) -> TraceSpan:
        """Open the span ``name`` for ``transaction_id`` at ``site``.

        Re-opening after a close starts the next attempt; opening while the
        previous attempt is still open raises :class:`TraceError`.
        """
        key = _span_key(name, site, transaction_id)
        if key in self._open:
            raise TraceError(
                f"span {name!r} of {transaction_id} at {site} is already open"
            )
        attempt = self._closed_counts.get(key, 0) + 1
        span = TraceSpan(
            name=name,
            site=site,
            transaction_id=transaction_id,
            start=at,
            attempt=attempt,
            attrs=dict(attrs),
        )
        self._open[key] = span
        self.spans.append(span)
        return span

    def end(
        self,
        at: float,
        name: str,
        site: SiteId,
        transaction_id: TransactionId,
        *,
        outcome: str = "ok",
        **attrs: Any,
    ) -> TraceSpan:
        """Close the open span ``name``; raises if it is not open."""
        key = _span_key(name, site, transaction_id)
        span = self._open.pop(key, None)
        if span is None:
            raise TraceError(
                f"span {name!r} of {transaction_id} at {site} is not open "
                "(double close, or end without begin)"
            )
        span.end = at
        span.outcome = outcome
        span.attrs.update(attrs)
        self._closed_counts[key] = self._closed_counts.get(key, 0) + 1
        return span

    def end_if_open(
        self,
        at: float,
        name: str,
        site: SiteId,
        transaction_id: TransactionId,
        *,
        outcome: str = "ok",
        **attrs: Any,
    ) -> Optional[TraceSpan]:
        """Close the span if it is open; no-op (returns ``None``) otherwise."""
        if _span_key(name, site, transaction_id) not in self._open:
            return None
        return self.end(at, name, site, transaction_id, outcome=outcome, **attrs)

    def close_site_spans(self, at: float, site: SiteId, *, outcome: str) -> int:
        """Close every open span at ``site`` (a crash killed the process)."""
        keys = [key for key in self._open if key[1] == site]
        for key in keys:
            self.end(at, key[0], site, key[2], outcome=outcome)
        return len(keys)

    # ----------------------------------------------------------- inspection
    def spans_of(
        self, transaction_id: TransactionId, name: Optional[str] = None
    ) -> List[TraceSpan]:
        """All spans of one transaction (optionally filtered by name)."""
        return [
            span
            for span in self.spans
            if span.transaction_id == transaction_id
            and (name is None or span.name == name)
        ]

    def events_of(self, transaction_id: TransactionId) -> List[TraceEvent]:
        """All events of one transaction, in recording order."""
        return [event for event in self.events if event.transaction_id == transaction_id]

    def transaction_timeline(
        self, transaction_id: TransactionId
    ) -> List[Tuple[float, str, SiteId]]:
        """The ``(time, kind, site)`` sequence of one transaction's events."""
        return [
            (event.time, event.kind, event.site)
            for event in self.events_of(transaction_id)
        ]

    def signature(self) -> Tuple[Tuple[float, str, str, Optional[str]], ...]:
        """Comparable fingerprint of the whole trace (determinism tests).

        Transaction identifiers embed a process-global counter, so two
        same-seed runs in one process produce different raw ids; the
        signature renames them by first appearance (``T0``, ``T1``, ...) so
        equal signatures mean equal behaviour, not equal counter offsets.
        """
        canonical: Dict[TransactionId, str] = {}
        rows = []
        for event in self.events:
            transaction_id = event.transaction_id
            if transaction_id is not None:
                if transaction_id not in canonical:
                    canonical[transaction_id] = f"T{len(canonical)}"
                transaction_id = canonical[transaction_id]
            rows.append((event.time, event.kind, event.site, transaction_id))
        return tuple(rows)

    # --------------------------------------------------------------- export
    def to_jsonl(self) -> str:
        """Serialise events and closed spans as JSON Lines (one per line)."""
        lines = [json.dumps(event.to_dict(), sort_keys=True) for event in self.events]
        lines += [
            json.dumps(span.to_dict(), sort_keys=True)
            for span in self.spans
            if span.closed
        ]
        return "\n".join(lines)

    def to_chrome_trace(self) -> List[Dict[str, Any]]:
        """Export as Chrome trace-event objects (``chrome://tracing``).

        Sites map to processes (``pid``), transactions to threads (``tid``);
        spans become complete events (``ph: "X"``) and point events become
        instants (``ph: "i"``).  Virtual seconds become microseconds, the
        unit the trace viewer expects.
        """
        trace: List[Dict[str, Any]] = []
        for span in self.spans:
            if not span.closed:
                continue
            trace.append(
                {
                    "name": f"{span.name}#{span.attempt}",
                    "cat": span.name,
                    "ph": "X",
                    "ts": span.start * 1e6,
                    "dur": (span.end - span.start) * 1e6,
                    "pid": span.site,
                    "tid": span.transaction_id,
                    "args": {"outcome": span.outcome, **span.attrs},
                }
            )
        for event in self.events:
            trace.append(
                {
                    "name": event.kind,
                    "cat": "event",
                    "ph": "i",
                    "s": "p",
                    "ts": event.time * 1e6,
                    "pid": event.site,
                    "tid": event.transaction_id or event.kind,
                    "args": dict(event.attrs),
                }
            )
        trace.sort(key=lambda entry: (entry["ts"], entry["pid"], entry["name"]))
        return trace

    def write_chrome_trace(self, stream_or_path) -> int:
        """Write the Chrome trace JSON; returns the number of entries."""
        trace = self.to_chrome_trace()
        payload = json.dumps(trace, sort_keys=True)
        if hasattr(stream_or_path, "write"):
            stream_or_path.write(payload)
        else:
            with open(stream_or_path, "w", encoding="utf-8") as stream:
                stream.write(payload)
        return len(trace)

    # ------------------------------------------------------------- analysis
    def divergence_events(self) -> List[TraceEvent]:
        """Events marking a repaired opt/TO divergence (CC8 reorder aborts)."""
        return [event for event in self.events if event.kind == "reorder_abort"]

    def __len__(self) -> int:
        return len(self.events) + len(self.spans)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TransactionTracer(events={len(self.events)}, spans={len(self.spans)}, "
            f"open={len(self._open)})"
        )
