"""Fault plans: reproducible, composable chaos schedules.

A :class:`FaultPlan` is a declarative list of fault events — crashes and
recoveries, network partitions and heals, latency spikes — each targeting
sites, whole shards, or *roles* ("the current sequencer of shard S2").  The
plan itself is pure data: nothing happens until a
:class:`~repro.chaos.orchestrator.ChaosOrchestrator` binds it to a cluster,
schedules the events on the cluster's simulation kernel and resolves the
targets at fire time.  Because the kernel is deterministic and every random
choice (e.g. :func:`random_site`) is drawn from a named seeded stream, the
same plan applied to the same cluster seed always injects the same faults at
the same virtual times — the property the chaos test harness asserts.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Optional, Tuple, Union

from ..errors import ChaosError
from ..types import ShardId, SiteId

#: Fault actions understood by the orchestrator.
ACTION_CRASH = "crash"
ACTION_RECOVER = "recover"
ACTION_PARTITION = "partition"
ACTION_PARTITION_ONEWAY = "partition-oneway"
ACTION_HEAL = "heal"
ACTION_SLOW = "slow"
ACTION_RESTORE = "restore"

#: Target kinds (how the orchestrator resolves a target to concrete sites).
TARGET_SITE = "site"
TARGET_SHARD = "shard"
TARGET_COORDINATOR = "coordinator"
TARGET_RANDOM_SITE = "random-site"


class FaultTarget(NamedTuple):
    """What a fault event applies to, resolved to concrete sites at fire time.

    Attributes
    ----------
    kind:
        ``"site"`` (a literal site id), ``"shard"`` (every site of a shard),
        ``"coordinator"`` (the site *currently* acting as
        sequencer/coordinator — of the whole cluster, or of ``shard`` in a
        sharded deployment) or ``"random-site"`` (one site drawn from the
        orchestrator's seeded random stream, optionally restricted to
        ``shard``).
    """

    kind: str
    site: Optional[SiteId] = None
    shard: Optional[ShardId] = None

    def describe(self) -> str:
        """Human-readable form used in fault traces."""
        if self.kind == TARGET_SITE:
            return f"site({self.site})"
        if self.kind == TARGET_SHARD:
            return f"shard({self.shard})"
        if self.kind == TARGET_COORDINATOR:
            return f"coordinator({self.shard})" if self.shard else "coordinator()"
        if self.kind == TARGET_RANDOM_SITE:
            return f"random_site({self.shard})" if self.shard else "random_site()"
        return f"target({self.kind})"


def site(site_id: SiteId) -> FaultTarget:
    """Target one specific site."""
    return FaultTarget(kind=TARGET_SITE, site=site_id)


def shard(shard_id: ShardId) -> FaultTarget:
    """Target every site of one shard (requires a sharded cluster)."""
    return FaultTarget(kind=TARGET_SHARD, shard=shard_id)


def coordinator(shard_id: Optional[ShardId] = None) -> FaultTarget:
    """Target the site currently acting as sequencer/coordinator.

    The role is resolved when the fault fires, so "crash the coordinator of
    shard S2 at t=0.05" hits whichever site holds the role at that moment,
    even after earlier failovers.
    """
    return FaultTarget(kind=TARGET_COORDINATOR, shard=shard_id)


def random_site(shard_id: Optional[ShardId] = None) -> FaultTarget:
    """Target one site drawn from the orchestrator's seeded random stream."""
    return FaultTarget(kind=TARGET_RANDOM_SITE, shard=shard_id)


TargetLike = Union[FaultTarget, SiteId]


def _coerce_target(target: TargetLike) -> FaultTarget:
    if isinstance(target, FaultTarget):
        return target
    if isinstance(target, str):
        return site(target)
    raise ChaosError(f"cannot interpret {target!r} as a fault target")


class FaultEvent(NamedTuple):
    """One scheduled fault.

    ``duration`` > 0 makes the fault self-reverting: the orchestrator
    resolves the targets once when the fault fires and schedules the inverse
    action (recover / heal / restore) ``duration`` seconds later *for those
    exact sites*.  This is what makes ``crash(coordinator(), duration=...)``
    recover the old coordinator rather than re-resolving the role after the
    failover already promoted someone else.
    """

    time: float
    action: str
    targets: Tuple[FaultTarget, ...]
    duration: float = 0.0
    extra_delay: float = 0.0
    sequence: int = 0
    #: Second target group of directed events: ``partition_oneway`` severs
    #: the links ``targets -> receivers`` (receivers stop hearing sources).
    receivers: Tuple[FaultTarget, ...] = ()


class FaultPlan:
    """Builder composing fault events into one reproducible schedule.

    A plan is pure data until an orchestrator arms it; builder calls chain::

        plan = (
            FaultPlan("drill")
            .crash(coordinator("S1"), at=0.030, duration=0.080)
            .partition([site("S2:N3")], at=0.015, duration=0.050)
            .latency_spike(0.005, at=0.020, duration=0.040)
        )

    Targets and roles
    -----------------
    Every event names *targets* that the orchestrator resolves to concrete
    sites **at fire time**, not at build time:

    * :func:`site` — a literal site id (``"S2:N3"``, or ``"N3"`` on a flat
      cluster);
    * :func:`shard` — every site of one shard;
    * :func:`coordinator` — whichever site *currently* holds the
      sequencer/coordinator role (of the cluster, or of the given shard), so
      a plan can chase the role across failovers;
    * :func:`random_site` — one site drawn from the orchestrator's seeded
      ``chaos.targets`` stream, optionally restricted to a shard; the draw
      is deterministic per cluster seed.

    Durations and composition
    -------------------------
    ``duration=`` makes a fault self-reverting for the sites resolved at
    fire time (see :class:`FaultEvent`).  Overlapping crash windows on one
    site are reference-counted — the site recovers when the last window
    closes — and overlapping latency spikes compose additively.  An explicit
    :meth:`recover`/:meth:`heal` cancels the open windows of its targets.
    """

    def __init__(self, name: str = "chaos") -> None:
        self.name = name
        self._events: List[FaultEvent] = []

    # -------------------------------------------------------------- building
    def _add(
        self,
        time: float,
        action: str,
        targets: Tuple[FaultTarget, ...],
        *,
        duration: float = 0.0,
        extra_delay: float = 0.0,
        receivers: Tuple[FaultTarget, ...] = (),
    ) -> "FaultPlan":
        if time < 0.0:
            raise ChaosError(f"cannot schedule a fault at negative time {time!r}")
        self._events.append(
            FaultEvent(
                time=time,
                action=action,
                targets=targets,
                duration=duration,
                extra_delay=extra_delay,
                sequence=len(self._events),
                receivers=receivers,
            )
        )
        return self

    def crash(
        self, target: TargetLike, *, at: float, duration: Optional[float] = None
    ) -> "FaultPlan":
        """Crash the target at ``at``; with ``duration``, recover it later.

        The recovery applies to the sites resolved at crash time (important
        for role targets — see :class:`FaultEvent`).
        """
        if duration is not None and duration <= 0.0:
            raise ChaosError("crash duration must be positive")
        return self._add(
            at, ACTION_CRASH, (_coerce_target(target),), duration=duration or 0.0
        )

    def recover(self, target: TargetLike, *, at: float) -> "FaultPlan":
        """Recover the target at ``at`` (for unpaired crashes).

        Role targets are rejected: ``coordinator()``/``random_site()``
        re-resolve at fire time to a *live* site, so the crashed site could
        never be the one recovered (recovery of an up site is a no-op).  To
        revert a role crash on the exact sites it hit, use
        ``crash(target, at=..., duration=...)``.
        """
        coerced = _coerce_target(target)
        if coerced.kind in (TARGET_COORDINATOR, TARGET_RANDOM_SITE):
            raise ChaosError(
                f"recover() cannot take a {coerced.kind} target: the role "
                "resolves to a live site at fire time, never the crashed one; "
                "use crash(..., duration=...) to revert the same sites"
            )
        return self._add(at, ACTION_RECOVER, (coerced,))

    def partition(
        self,
        targets: Iterable[TargetLike],
        *,
        at: float,
        duration: Optional[float] = None,
    ) -> "FaultPlan":
        """Split the targets' sites into their own partition group at ``at``.

        With ``duration`` the same sites rejoin the main group ``duration``
        seconds later.
        """
        coerced = tuple(_coerce_target(target) for target in targets)
        if not coerced:
            raise ChaosError("a partition needs at least one target")
        if duration is not None and duration <= 0.0:
            raise ChaosError("partition duration must be positive")
        return self._add(at, ACTION_PARTITION, coerced, duration=duration or 0.0)

    def partition_oneway(
        self,
        sources: Iterable[TargetLike],
        receivers: Iterable[TargetLike],
        *,
        at: float,
        duration: Optional[float] = None,
    ) -> "FaultPlan":
        """Sever the directed links ``sources -> receivers`` at ``at``.

        Asymmetric partition: every receiver stops hearing from every source
        while traffic in the opposite direction still flows — so a receiver
        comes to suspect the sources while the sources keep trusting it.
        With ``duration`` the same links (resolved at fire time) are restored
        ``duration`` seconds later; overlapping windows on one link are
        reference-counted and an explicit :meth:`heal` of either endpoint
        cancels them (the same generation-based cancellation as symmetric
        partitions).
        """
        coerced_sources = tuple(_coerce_target(target) for target in sources)
        coerced_receivers = tuple(_coerce_target(target) for target in receivers)
        if not coerced_sources or not coerced_receivers:
            raise ChaosError("a one-way partition needs sources and receivers")
        if duration is not None and duration <= 0.0:
            raise ChaosError("partition duration must be positive")
        return self._add(
            at,
            ACTION_PARTITION_ONEWAY,
            coerced_sources,
            duration=duration or 0.0,
            receivers=coerced_receivers,
        )

    def heal(
        self, *, at: float, targets: Optional[Iterable[TargetLike]] = None
    ) -> "FaultPlan":
        """Heal partitions at ``at`` (all of them, or only the targets').

        ``targets=None`` heals everything; an explicitly *empty* target list
        is rejected so that a computed site list that happens to be empty
        cannot silently wipe every active partition.
        """
        if targets is None:
            return self._add(at, ACTION_HEAL, ())
        coerced = tuple(_coerce_target(target) for target in targets)
        if not coerced:
            raise ChaosError(
                "heal() got an empty target list; pass targets=None to heal "
                "all partitions"
            )
        return self._add(at, ACTION_HEAL, coerced)

    def latency_spike(
        self, extra_delay: float, *, at: float, duration: float
    ) -> "FaultPlan":
        """Add ``extra_delay`` seconds to every message for a time window.

        Models a transient network slowdown (overloaded switch, GC pause on
        the wire): the transport's latency model is wrapped during the window
        and restored afterwards.
        """
        if extra_delay <= 0.0:
            raise ChaosError("a latency spike needs a positive extra delay")
        if duration <= 0.0:
            raise ChaosError("latency spike duration must be positive")
        return self._add(
            at, ACTION_SLOW, (), duration=duration, extra_delay=extra_delay
        )

    # ------------------------------------------------------------ inspection
    def events(self) -> List[FaultEvent]:
        """Return the plan's events ordered by (time, insertion order)."""
        return sorted(self._events, key=lambda event: (event.time, event.sequence))

    def faults_cease_at(self) -> float:
        """Virtual time after which the plan injects nothing further.

        Liveness assertions ("every submitted transaction eventually
        terminates") are meaningful only past this point.
        """
        latest = 0.0
        for event in self._events:
            latest = max(latest, event.time + event.duration)
        return latest

    def __len__(self) -> int:
        return len(self._events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan(name={self.name!r}, events={len(self._events)})"
