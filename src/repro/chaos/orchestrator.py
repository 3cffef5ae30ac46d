"""Chaos orchestrator: binds a :class:`FaultPlan` to a live cluster.

The orchestrator schedules every plan event on the cluster's simulation
kernel, resolves targets (sites, shards, roles) *at fire time*, applies the
fault through the cluster's own primitives — the :class:`CrashManager` of
the owning replica group, the transport's :class:`PartitionController`, the
transport's latency model — and records every injected fault in a trace.
The trace is pure data, so two runs with the same seed can be compared
fault-for-fault to prove the schedule is reproducible.

Both cluster facades are supported through the one shape they share —
``replica_groups()``, a flat :class:`~repro.core.cluster.ReplicatedDatabase`
being the one-group case of a :class:`~repro.sharding.cluster.ShardedCluster`
— and crash/recovery is routed through the owning group's crash manager so
that the group's own coordinator-failover listener fires.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..errors import ChaosError
from ..network.latency import LatencyModel
from ..simulation.randomness import RandomStream
from ..types import ShardId, SiteId
from .plan import (
    ACTION_CRASH,
    ACTION_HEAL,
    ACTION_PARTITION,
    ACTION_PARTITION_ONEWAY,
    ACTION_RECOVER,
    ACTION_RESTORE,
    ACTION_SLOW,
    TARGET_COORDINATOR,
    TARGET_RANDOM_SITE,
    TARGET_SHARD,
    TARGET_SITE,
    FaultEvent,
    FaultPlan,
    FaultTarget,
)


class SpikedLatency(LatencyModel):
    """A latency model temporarily inflated by a chaos latency spike."""

    __slots__ = ("base", "extra_delay")

    def __init__(self, base: LatencyModel, extra_delay: float) -> None:
        self.base = base
        self.extra_delay = extra_delay

    def shared_delay(self, stream: RandomStream) -> float:
        return self.base.shared_delay(stream) + self.extra_delay

    def receiver_delay(
        self, sender: SiteId, receiver: SiteId, stream: RandomStream
    ) -> float:
        return self.base.receiver_delay(sender, receiver, stream)


class InjectedFault(NamedTuple):
    """One fault actually applied to the cluster (trace record)."""

    time: float
    action: str
    target: str
    sites: Tuple[SiteId, ...]


def trace_signature(
    trace: Sequence[InjectedFault],
) -> Tuple[Tuple[float, str, Tuple[SiteId, ...]], ...]:
    """A comparable fingerprint of an injected-fault trace.

    Two runs of the same plan with the same seed must produce equal
    signatures (the determinism property the chaos tests assert).
    """
    return tuple(
        (round(fault.time, 9), fault.action, fault.sites) for fault in trace
    )


#: Trace actions that inject a fault (as opposed to reverting one).
INJECTION_ACTIONS = frozenset(
    {ACTION_CRASH, ACTION_PARTITION, ACTION_PARTITION_ONEWAY, ACTION_SLOW}
)

#: An open fault window: the keys it covers (sites, or directed links for
#: one-way partitions), each with the generation observed when the window
#: opened.
_Window = Tuple[Tuple[object, int], ...]


class _WindowTracker:
    """Reference-counted fault windows with generation-based cancellation.

    Overlapping self-reverting faults of one kind (crash or partition) hold
    each key once per open window: a key reverts only when its *last*
    window closes.  An explicit revert (recover/heal) cancels every open
    window of its keys by bumping the key's generation — a stale window's
    close then sees a newer generation and must not consume the hold of any
    fault injected after the cancellation.  Keys are sites for crash and
    symmetric-partition windows, and directed ``(source, receiver)`` link
    tuples for one-way partition windows.
    """

    def __init__(self) -> None:
        self._holds: Dict[object, int] = {}
        self._generation: Dict[object, int] = {}

    def open(self, keys: Sequence[object]) -> _Window:
        """Register one window over ``keys`` and return its handle."""
        window = []
        for key in keys:
            self._holds[key] = self._holds.get(key, 0) + 1
            window.append((key, self._generation.get(key, 0)))
        return tuple(window)

    def cancel(self, keys: Sequence[object]) -> None:
        """Cancel every open window of ``keys`` (explicit revert)."""
        for key in keys:
            self._holds.pop(key, None)
            self._generation[key] = self._generation.get(key, 0) + 1

    def cancel_all(self) -> None:
        """Cancel every open window of every key."""
        self.cancel(list(self._holds))

    def close(self, window: _Window) -> List[object]:
        """Close one window; return the keys whose last window this was."""
        released: List[object] = []
        for key, generation in window:
            if self._generation.get(key, 0) != generation:
                continue  # window was cancelled by an explicit revert
            holds = self._holds.get(key, 0) - 1
            if holds > 0:
                self._holds[key] = holds
                continue
            self._holds.pop(key, None)
            released.append(key)
        return released


class _Binding:
    """The cluster as the orchestrator sees it: a dict of replica groups.

    A flat :class:`ReplicatedDatabase` is the one-group case, so shard and
    role targets resolve by the same lookups on either facade.
    """

    def __init__(self, cluster) -> None:
        try:
            self.groups = cluster.replica_groups()
        except AttributeError:
            raise ChaosError(
                f"cannot bind a fault plan to {type(cluster).__name__}; expected "
                "a ReplicatedDatabase or a ShardedCluster"
            ) from None
        self.kernel = cluster.kernel
        self.transport = cluster.transport
        self._group_of_site = {
            site_id: group
            for group in self.groups.values()
            for site_id in group.site_ids()
        }

    def _group(self, shard_id: ShardId):
        try:
            return self.groups[shard_id]
        except KeyError:
            raise ChaosError(
                f"target names unknown shard {shard_id!r}; this plan is bound "
                f"to groups {sorted(self.groups)}"
            ) from None

    def all_sites(self) -> List[SiteId]:
        return list(self._group_of_site)

    def shard_sites(self, shard_id: ShardId) -> List[SiteId]:
        return list(self._group(shard_id).site_ids())

    def coordinator(self, shard_id: Optional[ShardId]) -> SiteId:
        if shard_id is not None:
            return self._group(shard_id).coordinator_site()
        if len(self.groups) != 1:
            raise ChaosError(
                "target coordinator() is ambiguous on a cluster of "
                f"{len(self.groups)} groups; name a shard, e.g. coordinator('S2')"
            )
        (group,) = self.groups.values()
        return group.coordinator_site()

    def crash_manager_of(self, site_id: SiteId):
        try:
            return self._group_of_site[site_id].crash_manager
        except KeyError:
            raise ChaosError(f"site {site_id!r} belongs to no shard") from None


class ChaosOrchestrator:
    """Applies a :class:`FaultPlan` to a cluster and records the fault trace.

    Usage::

        orchestrator = ChaosOrchestrator(cluster, plan).arm()
        cluster.run_until_idle()
        print(orchestrator.trace)

    ``arm()`` schedules every plan event on the cluster's kernel; nothing is
    injected until the simulation runs.  All randomness (the ``random_site``
    target) comes from the kernel's seeded ``"chaos.targets"`` stream, so the
    resolved schedule is a deterministic function of the cluster seed.

    Binding contract
    ----------------
    ``cluster`` is any facade with ``replica_groups()``; shard and role
    targets resolve against those groups and — crucially — crashes and
    recoveries go through the *owning group's* crash manager, so its own
    coordinator-failover and recovery listeners fire exactly as they would
    for an organic fault.  Faults are applied only through the cluster's
    public primitives (crash manager, partition controller, latency model);
    the orchestrator never reaches into protocol state, which is why every
    subsystem — including the broadcast batching layer — is
    chaos-transparent by construction.
    """

    def __init__(self, cluster, plan: FaultPlan) -> None:
        self.cluster = cluster
        self.plan = plan
        self.binding = _Binding(cluster)
        self.trace: List[InjectedFault] = []
        self._stream = self.binding.kernel.random.stream("chaos.targets")
        self._armed = False
        # Overlapping windows of one fault kind are tracked per site (see
        # _WindowTracker); latency spikes are additive — each spike removes
        # exactly its own extra delay when its window ends.
        self._crash_windows = _WindowTracker()
        self._partition_windows = _WindowTracker()
        self._link_windows = _WindowTracker()
        self._spike_extras: List[float] = []
        self._spike_base: Optional[LatencyModel] = None

    # --------------------------------------------------------------- control
    def arm(self) -> "ChaosOrchestrator":
        """Schedule the whole plan on the cluster's kernel."""
        if self._armed:
            raise ChaosError(f"plan {self.plan.name!r} is already armed")
        self._armed = True
        for event in self.plan.events():
            self.binding.kernel.schedule_at(
                event.time,
                (lambda e=event: self._fire(e)),
                label=f"chaos:{self.plan.name}:{event.action}",
            )
        return self

    # ------------------------------------------------------------ inspection
    def faults_injected(self) -> int:
        """Number of faults injected so far (reverts are not counted)."""
        return sum(1 for fault in self.trace if fault.action in INJECTION_ACTIONS)

    def trace_signature(self) -> Tuple[Tuple[float, str, Tuple[SiteId, ...]], ...]:
        """Comparable fingerprint of the injected-fault trace (see module fn)."""
        return trace_signature(self.trace)

    # -------------------------------------------------------------- internal
    def _record(self, action: str, target: str, sites: Sequence[SiteId]) -> None:
        self.trace.append(
            InjectedFault(
                time=self.binding.kernel.now(),
                action=action,
                target=target,
                sites=tuple(sites),
            )
        )

    def _fire(self, event: FaultEvent) -> None:
        sites = self._resolve(event.targets)
        description = ", ".join(target.describe() for target in event.targets)
        if event.action == ACTION_CRASH:
            window = self._crash_windows.open(sites)
            for site_id in sites:
                self.binding.crash_manager_of(site_id).crash_now(site_id)
            self._record(ACTION_CRASH, description, sites)
            if event.duration > 0.0:
                self.binding.kernel.schedule(
                    event.duration,
                    lambda: self._auto_recover(window),
                    label=f"chaos:{self.plan.name}:auto-recover",
                )
        elif event.action == ACTION_RECOVER:
            self._recover(sites, description)
        elif event.action == ACTION_PARTITION:
            window = self._partition_windows.open(sites)
            self.binding.transport.partitions.isolate(
                sites, at_time=self.binding.kernel.now()
            )
            self._record(ACTION_PARTITION, description, sites)
            if event.duration > 0.0:
                self.binding.kernel.schedule(
                    event.duration,
                    lambda: self._auto_heal(window),
                    label=f"chaos:{self.plan.name}:auto-heal",
                )
        elif event.action == ACTION_PARTITION_ONEWAY:
            receivers = self._resolve(event.receivers)
            links = [
                (source, receiver)
                for source in sites
                for receiver in receivers
                if source != receiver
            ]
            if not links:
                raise ChaosError(
                    "one-way partition resolved to no links (sources and "
                    "receivers collapsed to the same sites)"
                )
            window = self._link_windows.open(links)
            for source, receiver in links:
                self.binding.transport.partitions.sever(
                    source, receiver, at_time=self.binding.kernel.now()
                )
            receiver_description = ", ".join(
                target.describe() for target in event.receivers
            )
            self._record(
                ACTION_PARTITION_ONEWAY,
                f"{description} -> {receiver_description}",
                tuple(f"{source}->{receiver}" for source, receiver in links),
            )
            if event.duration > 0.0:
                self.binding.kernel.schedule(
                    event.duration,
                    lambda: self._auto_restore_links(window),
                    label=f"chaos:{self.plan.name}:auto-restore-links",
                )
        elif event.action == ACTION_HEAL:
            self._heal()
        elif event.action == ACTION_SLOW:
            self._apply_spike(event.extra_delay)
            self._record(ACTION_SLOW, f"+{event.extra_delay}s", ())
            self.binding.kernel.schedule(
                event.duration,
                lambda: self._restore_latency(event.extra_delay),
                label=f"chaos:{self.plan.name}:restore-latency",
            )
        else:
            raise ChaosError(f"unknown fault action {event.action!r}")

    def _resolve(self, targets: Tuple[FaultTarget, ...]) -> Tuple[SiteId, ...]:
        resolved: List[SiteId] = []
        for target in targets:
            if target.kind == TARGET_SITE:
                candidates = [target.site]
            elif target.kind == TARGET_SHARD:
                candidates = self.binding.shard_sites(target.shard)
            elif target.kind == TARGET_COORDINATOR:
                candidates = [self.binding.coordinator(target.shard)]
            elif target.kind == TARGET_RANDOM_SITE:
                pool = (
                    self.binding.shard_sites(target.shard)
                    if target.shard is not None
                    else self.binding.all_sites()
                )
                candidates = [self._stream.choice(sorted(pool))]
            else:
                raise ChaosError(f"unknown target kind {target.kind!r}")
            for site_id in candidates:
                if site_id not in resolved:
                    resolved.append(site_id)
        return tuple(resolved)

    def _recover(self, sites: Sequence[SiteId], description: str) -> None:
        """Explicit recovery: cancels any still-open crash windows."""
        self._crash_windows.cancel(sites)
        for site_id in sites:
            self.binding.crash_manager_of(site_id).recover_now(site_id)
        self._record(ACTION_RECOVER, description, sites)

    def _auto_recover(self, window: _Window) -> None:
        """End one crash window: recover only sites with no other open window."""
        released = self._crash_windows.close(window)
        for site_id in released:
            self.binding.crash_manager_of(site_id).recover_now(site_id)
        if released:
            self._record(ACTION_RECOVER, "auto-recover", tuple(released))

    def _heal(self) -> None:
        """Explicit heal: cancels every still-open partition and link window."""
        self._partition_windows.cancel_all()
        self._link_windows.cancel_all()
        # The controller's heal also restores every severed link.
        self.binding.transport.partitions.heal(at_time=self.binding.kernel.now())
        self._record(ACTION_HEAL, "all", ())

    def _auto_heal(self, window: _Window) -> None:
        """End one partition window: heal only sites with no other open window."""
        released = self._partition_windows.close(window)
        if released:
            self.binding.transport.partitions.heal(
                released, at_time=self.binding.kernel.now()
            )
            self._record(ACTION_HEAL, "auto-heal", tuple(released))

    def _auto_restore_links(self, window: _Window) -> None:
        """End one one-way window: restore only links with no other window."""
        released = self._link_windows.close(window)
        if not released:
            return
        for source, receiver in released:
            self.binding.transport.partitions.restore(
                source, receiver, at_time=self.binding.kernel.now()
            )
        self._record(
            ACTION_HEAL,
            "auto-restore-links",
            tuple(f"{source}->{receiver}" for source, receiver in released),
        )

    def _apply_spike(self, extra_delay: float) -> None:
        transport = self.binding.transport
        if not self._spike_extras:
            self._spike_base = transport.latency_model
        self._spike_extras.append(extra_delay)
        transport.latency_model = SpikedLatency(
            base=self._spike_base, extra_delay=sum(self._spike_extras)
        )

    def _restore_latency(self, extra_delay: float) -> None:
        transport = self.binding.transport
        if not isinstance(transport.latency_model, SpikedLatency):
            raise ChaosError(
                "cannot restore the latency model: the active model is not a "
                "chaos spike (was it replaced mid-run?)"
            )
        self._spike_extras.remove(extra_delay)
        if self._spike_extras:
            transport.latency_model = SpikedLatency(
                base=self._spike_base, extra_delay=sum(self._spike_extras)
            )
        else:
            transport.latency_model = self._spike_base
            self._spike_base = None
        self._record(ACTION_RESTORE, "latency", ())
