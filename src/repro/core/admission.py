"""Admission control: queue-depth watermarks that shed open-loop overload.

Closed-loop workloads self-regulate — a client submits its next transaction
only after the previous one completed, so the system can never be offered
more load than it finishes.  Open-loop traffic
(:mod:`repro.workloads.arrivals`) removes that coupling: submissions arrive
at externally determined times, and past the saturation knee the class
queues grow without bound, taking client-observed commit latency with them.

:class:`AdmissionController` is the per-site backpressure valve in front of
the OTP scheduler.  It watches the site's class-queue depth (the number of
opt-delivered transactions not yet committed) against a high/low watermark
pair with hysteresis: admission *stops* when the depth reaches
``high_watermark`` and resumes only once the backlog has drained to
``low_watermark``, so a depth oscillating around a single threshold cannot
flap the valve open and shut on every arrival.  While the valve is closed,
every submission is shed: the client is told at once, and nothing is parked
for a later re-offer.

Every decision is counted on the site's
:class:`~repro.metrics.collector.MetricsCollector` (``admission_admitted``,
``admission_shed_<cause>``) and the observed depth is tracked by the
``admission_queue_depth`` gauge; the metrics registry
groups the shed counters into sheds-by-cause
(:data:`repro.observability.registry.SHED_CAUSES`).  The controller itself
never touches another site's state — client failover around closed sites is
the cluster facade's job (see
:meth:`repro.core.cluster.ReplicatedDatabase.offer_update`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import ReplicationError

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from .replica import ReplicaManager

#: Shed causes (suffixes of the ``admission_shed_<cause>`` counters).
CAUSE_OVERLOAD = "overload"
CAUSE_SITE_DOWN = "site_down"


@dataclass
class AdmissionConfig:
    """Watermark/backpressure configuration of one cluster (or shard).

    Attributes
    ----------
    high_watermark:
        Queue depth at which a site stops admitting new submissions.
    low_watermark:
        Depth to which the backlog must drain before admission resumes
        (the hysteresis band ``low_watermark..high_watermark`` prevents
        admit/shed flapping around a single threshold).
    """

    high_watermark: int = 32
    low_watermark: int = 16

    def __post_init__(self) -> None:
        if self.high_watermark < 1:
            raise ReplicationError("high_watermark must be at least 1")
        if not 0 <= self.low_watermark <= self.high_watermark:
            raise ReplicationError(
                "low_watermark must lie in [0, high_watermark] "
                f"(got low={self.low_watermark}, high={self.high_watermark})"
            )


class AdmissionController:
    """Per-site watermark valve in front of the OTP scheduler.

    The controller evaluates lazily at offer time — no periodic probe event
    — so an idle cluster schedules nothing and the decision always reflects
    the queue depth at the instant of the offer.
    """

    def __init__(self, replica: "ReplicaManager", config: AdmissionConfig) -> None:
        self.replica = replica
        self.config = config
        #: Whether the valve is currently closed (hysteresis state).
        self.shedding = False
        #: Number of admit->shed transitions (each is one closed window).
        self.shed_windows = 0

    def queue_depth(self) -> int:
        """Current backlog: opt-delivered, not-yet-committed transactions."""
        return self.replica.scheduler.pending_count()

    def admits(self) -> bool:
        """Update the hysteresis state and decide one offer.

        Counts the offer as ``admission_admitted`` or as an overload shed,
        and returns whether it is admitted.
        """
        depth = self.queue_depth()
        self.replica.metrics.set_gauge("admission_queue_depth", float(depth))
        if self.shedding:
            # Reopen below high only: with equal watermarks a constant depth
            # at high would otherwise alternate shed and admit.
            if depth <= self.config.low_watermark and depth < self.config.high_watermark:
                self.shedding = False
        elif depth >= self.config.high_watermark:
            self.shedding = True
            self.shed_windows += 1
        if self.shedding:
            self.replica.metrics.increment(f"admission_shed_{CAUSE_OVERLOAD}")
            return False
        self.replica.metrics.increment("admission_admitted")
        return True
