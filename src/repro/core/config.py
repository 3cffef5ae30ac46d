"""Configuration of a replicated database cluster."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

from ..broadcast.batching import BatchingConfig
from ..errors import ReplicationError
from ..failure.suspicion import FailureDetectionConfig
from ..network.latency import GeoLatency, GeoTopology, LanMulticastLatency, LatencyModel
from ..observability.trace import TransactionTracer
from .admission import AdmissionConfig

#: Broadcast protocol choices for the cluster.
BROADCAST_OPTIMISTIC = "optimistic"
BROADCAST_CONSERVATIVE = "conservative"
BROADCAST_LAZY = "lazy"
BROADCAST_CHOICES = (BROADCAST_OPTIMISTIC, BROADCAST_CONSERVATIVE, BROADCAST_LAZY)


@dataclass
class ProtocolConfig:
    """The protocol and network settings every replica group runs with.

    Declared and validated once; :class:`ClusterConfig` adds the shape of one
    group and :class:`ShardingConfig` the shape of several, and a sharded
    deployment hands every shard's group exactly these values.

    Attributes
    ----------
    seed:
        Master seed for all randomness (network jitter, execution times,
        workload sampling when the workload shares the kernel).
    broadcast:
        ``"optimistic"`` for the paper's atomic broadcast with optimistic
        delivery, ``"conservative"`` for the baseline: the same protocol
        delivering each message only once its definitive order is known.
        ``"lazy"`` is the asynchronous replication the paper's introduction
        sets OTP against: a site executes and commits an update on its own,
        then multicasts the write set, which the other sites apply
        last-writer-wins (see :class:`~repro.core.replica.ReplicaManager`).
        It orders nothing, so it takes neither ``batching`` nor the voting
        ordering mode, and it has no crash recovery.
    ordering_mode:
        Definitive-order engine of the broadcast: ``"sequencer"`` or
        ``"voting"`` (see :mod:`repro.broadcast.optimistic`).  Voting
        measures agreement of the *optimistic* order, so it is rejected in
        combination with ``broadcast="conservative"``.
    latency_model:
        Network latency model; defaults to the LAN multicast model used for
        the Figure 1 reproduction.
    voting_timeout:
        Timeout of the voting ordering mode.
    batching:
        When given, every site's broadcast endpoint is wrapped in a
        :class:`~repro.broadcast.batching.BatchingEndpoint` that coalesces
        submissions within the configured time/size window into one ordered
        batch message, amortising the per-message ordering cost at high
        submission rates.  ``None`` (default) disables batching.
    medium_frame_time:
        Shared-medium frame serialisation time of the cluster's network (see
        :class:`~repro.network.transport.NetworkTransport`).  ``0.0``
        (default) models an uncontended medium; the batching ablation sets
        the paper's ~10 Mbit/s Ethernet frame time to expose the
        per-message ordering cost that batching amortises.
    tracer:
        When given, a :class:`~repro.observability.trace.TransactionTracer`
        receives per-transaction spans and events from the broadcast
        endpoints, scheduler, replica managers and crash manager.  ``None``
        (default) disables tracing; the disabled path is a single attribute
        check per hook.
    topology:
        A region-aware WAN link map
        (:class:`~repro.network.latency.GeoTopology`).  When given and no
        explicit ``latency_model`` is set, the cluster's network uses
        :class:`~repro.network.latency.GeoLatency` over it, so per-link
        delay depends on which regions the sender and receiver live in.
    failure_detection:
        Every coordinator promotion is decided by one
        :class:`~repro.failure.suspicion.SuspicionFailoverGovernor`
        (quorum condemnation + Ω election); this field picks its inputs.
        When given
        (:class:`~repro.failure.suspicion.FailureDetectionConfig`), the
        cluster attaches one heartbeat failure detector per site and the
        governor reads their suspicions.  ``None`` (default, oracle mode)
        feeds it a perfect detector over the crash manager's ground truth,
        so promotion happens at the crash instant.
    admission:
        When given (:class:`~repro.core.admission.AdmissionConfig`), every
        site gets an :class:`~repro.core.admission.AdmissionController` and
        the facade's ``offer_update`` path sheds submissions once the site's
        class-queue backlog crosses the high watermark — the backpressure
        valve open-loop traffic needs.  ``None`` (default) admits
        everything, and ``offer_update`` degenerates to ``submit`` with
        client failover.  In a sharded deployment a saturated shard sheds
        while healthy shards keep admitting — per-shard backpressure.
    """

    seed: int = 0
    broadcast: str = BROADCAST_OPTIMISTIC
    ordering_mode: str = "sequencer"
    latency_model: Optional[LatencyModel] = None
    voting_timeout: float = 0.010
    batching: Optional[BatchingConfig] = None
    medium_frame_time: float = 0.0
    tracer: Optional[TransactionTracer] = None
    topology: Optional[GeoTopology] = None
    failure_detection: Optional[FailureDetectionConfig] = None
    admission: Optional[AdmissionConfig] = None

    def __post_init__(self) -> None:
        if self.broadcast not in BROADCAST_CHOICES:
            raise ReplicationError(
                f"unknown broadcast {self.broadcast!r}; expected one of "
                f"{BROADCAST_CHOICES}"
            )
        if self.broadcast != BROADCAST_OPTIMISTIC and self.ordering_mode == "voting":
            raise ReplicationError(
                "ordering_mode='voting' checks the optimistic order and cannot be "
                f"combined with broadcast={self.broadcast!r}"
            )
        if self.broadcast == BROADCAST_LAZY and self.batching is not None:
            raise ReplicationError(
                "batching configures the ordering endpoint, which "
                "broadcast='lazy' never uses"
            )
        if self.medium_frame_time < 0.0:
            raise ReplicationError("medium frame time cannot be negative")
        if self.latency_model is None:
            # An explicit latency_model wins over topology (a sharded parent
            # materialises the model once and forwards both fields).
            if self.topology is not None:
                self.latency_model = GeoLatency(self.topology)
            else:
                self.latency_model = LanMulticastLatency()


@dataclass
class ClusterConfig(ProtocolConfig):
    """Static configuration of a simulated replicated database cluster.

    Adds the shape of one replica group to :class:`ProtocolConfig`.

    Attributes
    ----------
    site_count:
        Number of replica sites (the paper's experiment uses 4).
    site_prefix:
        Prefix prepended to every site identifier.  A sharded deployment
        gives each shard's replica group a distinct prefix (``"S1:"``,
        ``"S2:"``, ...) so that all groups can share one network transport
        without identifier collisions.
    """

    site_count: int = 4
    site_prefix: str = ""

    def __post_init__(self) -> None:
        if self.site_count < 1:
            raise ReplicationError("a cluster needs at least one site")
        super().__post_init__()

    def site_ids(self) -> list:
        """Return the identifiers of the cluster sites: ``N1 .. Nn``."""
        return [f"{self.site_prefix}N{index + 1}" for index in range(self.site_count)]


@dataclass
class ShardingConfig(ProtocolConfig):
    """Static configuration of a sharded replicated database.

    A sharded deployment partitions the conflict classes over ``shard_count``
    independent replica groups.  Each shard runs its own atomic broadcast
    group (its own sequencer/coordinator) over a replica set of
    ``sites_per_shard`` sites; all shards share a single simulation kernel
    and network transport.  Because transactions of different conflict
    classes never conflict (paper Section 2.3), sequencing them on
    independent broadcast groups preserves 1-copy-serializability for
    single-class update transactions while removing the global sequencer
    bottleneck.

    The :class:`ProtocolConfig` settings apply uniformly to every shard's
    replica group.
    """

    shard_count: int = 2
    sites_per_shard: int = 3

    def __post_init__(self) -> None:
        if self.shard_count < 1:
            raise ReplicationError("a sharded cluster needs at least one shard")
        if self.sites_per_shard < 1:
            raise ReplicationError("every shard needs at least one replica site")
        super().__post_init__()

    def shard_ids(self) -> list:
        """Return the identifiers of the shards: ``S1 .. Sn``."""
        return [f"S{index + 1}" for index in range(self.shard_count)]

    def shard_cluster_config(self, shard_index: int) -> ClusterConfig:
        """Return the :class:`ClusterConfig` of shard ``shard_index``.

        Each shard's sites are prefixed with the shard identifier
        (``"S2:N1"``...) so that all shards can coexist on one transport.
        """
        if not 0 <= shard_index < self.shard_count:
            raise ReplicationError(
                f"shard index {shard_index} out of range [0, {self.shard_count})"
            )
        shared = {
            field_.name: getattr(self, field_.name)
            for field_ in fields(ProtocolConfig)
        }
        return ClusterConfig(
            **shared,
            site_count=self.sites_per_shard,
            site_prefix=f"{self.shard_ids()[shard_index]}:",
        )
