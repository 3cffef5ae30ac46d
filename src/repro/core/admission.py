"""Admission control: queue-depth watermarks with shed/defer backpressure.

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
flap the valve open and shut on every arrival.  While shedding, a
submission is either rejected outright (policy ``"shed"``) or parked and
re-offered after ``retry_interval`` (policy ``"defer"``), up to
``max_deferrals`` attempts.

Every decision is counted on the site's
:class:`~repro.metrics.collector.MetricsCollector` (``admission_admitted``,
``admission_deferred``, ``admission_shed_<cause>``) and the observed depth
is tracked by the ``admission_queue_depth`` gauge; the metrics registry
groups the shed counters into sheds-by-cause
(:data:`repro.observability.registry.SHED_CAUSES`).  The controller itself
never touches another site's state — client failover around closed sites is
the cluster facade's job (see
:meth:`repro.core.cluster.ReplicatedDatabase.offer_update`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

from ..errors import ReplicationError

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from .replica import ReplicaManager

#: Admission policies: reject outright, or park and re-offer later.
POLICY_SHED = "shed"
POLICY_DEFER = "defer"
POLICY_CHOICES: Tuple[str, ...] = (POLICY_SHED, POLICY_DEFER)

#: Decisions returned by :meth:`AdmissionController.decide`.
DECISION_ADMIT = "admit"
DECISION_SHED = "shed"
DECISION_DEFER = "defer"

#: Shed causes (suffixes of the ``admission_shed_<cause>`` counters).
CAUSE_OVERLOAD = "overload"
CAUSE_SITE_DOWN = "site_down"
CAUSE_DEFER_EXHAUSTED = "defer_exhausted"


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
    policy:
        ``"shed"`` rejects a submission offered while the valve is closed;
        ``"defer"`` re-offers it after ``retry_interval`` seconds, up to
        ``max_deferrals`` attempts, then sheds it with cause
        ``defer_exhausted``.  The defer policy also covers a fully dark
        replica set (every site closed): the submission waits for a
        recovery instead of being dropped, mirroring the sharded router's
        dark-shard deferral.
    retry_interval:
        Virtual seconds between re-offers of a deferred submission.
    max_deferrals:
        How many times one submission may be deferred before it is shed.
    """

    high_watermark: int = 32
    low_watermark: int = 16
    policy: str = POLICY_SHED
    retry_interval: float = 0.002
    max_deferrals: int = 8

    def __post_init__(self) -> None:
        if self.high_watermark < 1:
            raise ReplicationError("high_watermark must be at least 1")
        if not 0 <= self.low_watermark <= self.high_watermark:
            raise ReplicationError(
                "low_watermark must lie in [0, high_watermark] "
                f"(got low={self.low_watermark}, high={self.high_watermark})"
            )
        if self.policy not in POLICY_CHOICES:
            raise ReplicationError(
                f"unknown admission policy {self.policy!r}; expected one of "
                f"{POLICY_CHOICES}"
            )
        if self.retry_interval <= 0.0:
            raise ReplicationError("retry_interval must be positive")
        if self.max_deferrals < 0:
            raise ReplicationError("max_deferrals cannot be negative")


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

    def decide(self) -> str:
        """Update the hysteresis state and return the decision for one offer.

        Returns :data:`DECISION_ADMIT`, :data:`DECISION_SHED` or
        :data:`DECISION_DEFER`.  The caller records the matching counter
        (``record_admitted`` / ``record_shed``, or the ``admission_deferred``
        count the cluster keeps for a re-offer) once it knows the
        submission's fate — deferral bookkeeping depends on the attempt
        count, which the controller does not track.
        """
        depth = self.queue_depth()
        self.replica.metrics.set_gauge("admission_queue_depth", float(depth))
        if self.shedding:
            if depth <= self.config.low_watermark:
                self.shedding = False
        elif depth >= self.config.high_watermark:
            self.shedding = True
            self.shed_windows += 1
        if not self.shedding:
            return DECISION_ADMIT
        if self.config.policy == POLICY_DEFER:
            return DECISION_DEFER
        return DECISION_SHED

    # ------------------------------------------------------------ accounting
    def record_admitted(self) -> None:
        """Count one admitted submission."""
        self.replica.metrics.increment("admission_admitted")

    def record_shed(self, cause: str) -> None:
        """Count one shed submission under ``cause``."""
        self.replica.metrics.increment(f"admission_shed_{cause}")
