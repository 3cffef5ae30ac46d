"""Latency models for the simulated network.

The paper's Figure 1 experiment hinges on one property of local-area
networks: a shared Ethernet serialises frames, so multicast messages arrive
at every site *almost* in the same order; the residual reordering comes from
per-receiver processing jitter (interrupt handling, UDP buffering).  The
:class:`LanMulticastLatency` model captures exactly that decomposition:

``arrival(receiver) = send_time + medium_delay(message) + receiver_jitter(message, receiver)``

where ``medium_delay`` is shared by all receivers of a message (the shared
bus) and ``receiver_jitter`` is independent per (message, receiver).  The
smaller the gap between two broadcasts, the more likely two receivers resolve
their jitter in opposite directions and perceive different orders — which is
the downward slope of Figure 1 as the inter-broadcast interval goes to zero.
"""

from __future__ import annotations

import abc
import re
from typing import NamedTuple, Sequence, Tuple

from ..errors import NetworkError
from ..simulation.randomness import RandomStream
from ..types import SiteId


class LatencyModel(abc.ABC):
    """Computes the one-way delay of a message towards one receiver."""

    __slots__ = ()

    @abc.abstractmethod
    def shared_delay(self, stream: RandomStream) -> float:
        """Delay component shared by every receiver of the same message."""

    @abc.abstractmethod
    def receiver_delay(
        self, sender: SiteId, receiver: SiteId, stream: RandomStream
    ) -> float:
        """Delay component drawn independently per receiver."""


class ConstantLatency(LatencyModel):
    """A fixed one-way delay (a test double: unit tests assert exact timings)."""

    __slots__ = ("delay",)

    def __init__(self, delay: float = 0.001) -> None:
        if not delay >= 0.0:
            raise NetworkError("latency cannot be negative")
        self.delay = delay

    def shared_delay(self, stream: RandomStream) -> float:
        return self.delay

    def receiver_delay(self, sender: SiteId, receiver: SiteId, stream: RandomStream) -> float:
        return 0.0


class UniformLatency(LatencyModel):
    """One-way delay drawn uniformly from ``[minimum, maximum]`` per receiver.

    A test double: a wide interval reorders a multicast differently at every
    receiver, which the transport and atomic-broadcast tests rely on.
    """

    __slots__ = ("minimum", "maximum")

    def __init__(self, minimum: float = 0.0005, maximum: float = 0.002) -> None:
        if not minimum >= 0.0 or not maximum >= minimum:
            raise NetworkError("invalid uniform latency bounds")
        self.minimum = minimum
        self.maximum = maximum

    def shared_delay(self, stream: RandomStream) -> float:
        return 0.0

    def receiver_delay(self, sender: SiteId, receiver: SiteId, stream: RandomStream) -> float:
        return stream.uniform(self.minimum, self.maximum)


#: Constant wire + protocol-stack delay shared by every receiver (seconds).
LAN_PROPAGATION = 0.0004
#: Mean and twice the standard deviation of the sender-side delay (MAC
#: contention, kernel scheduling on the sending host), in seconds.  It is
#: shared by all receivers of a message, so it delays the message but cannot
#: reorder it differently at different sites.
LAN_TRANSMISSION_JITTER = 0.0002


class LanMulticastLatency(LatencyModel):
    """Shared-medium LAN model used for the Figure 1 reproduction.

    Every message pays :data:`LAN_PROPAGATION` plus a truncated-normal
    sender-side delay around :data:`LAN_TRANSMISSION_JITTER`, shared by all
    its receivers, and then an exponential per-receiver processing jitter of
    mean ``receiver_jitter_mean`` (seconds).  That jitter is the component
    that produces disagreement between sites; the default of 120
    microseconds reproduces the shape of the paper's Figure 1 (about 99 %
    spontaneous order at a 4 ms inter-broadcast interval, dropping into the
    80s as the interval approaches zero).
    """

    __slots__ = ("receiver_jitter_mean",)

    def __init__(self, receiver_jitter_mean: float = 0.00012) -> None:
        if not receiver_jitter_mean >= 0.0:
            raise NetworkError("receiver jitter cannot be negative")
        self.receiver_jitter_mean = receiver_jitter_mean

    def shared_delay(self, stream: RandomStream) -> float:
        return LAN_PROPAGATION + stream.truncated_normal(
            LAN_TRANSMISSION_JITTER, LAN_TRANSMISSION_JITTER / 2.0
        )

    def receiver_delay(self, sender: SiteId, receiver: SiteId, stream: RandomStream) -> float:
        return stream.exponential(self.receiver_jitter_mean)


class _LinkDelays(NamedTuple):
    base: float
    jitter: float = 0.0


class LinkProfile(_LinkDelays):
    """Latency profile of one class of links: base one-way delay + jitter.

    ``base`` is the deterministic one-way propagation delay of the link;
    ``jitter`` is the mean of the exponential per-message variation on top
    (queueing, cross-traffic).
    """

    __slots__ = ()

    def __new__(cls, base: float, jitter: float = 0.0) -> "LinkProfile":
        if not base >= 0.0 or not jitter >= 0.0:
            raise NetworkError("link profile delays cannot be negative")
        return super().__new__(cls, base, jitter)


#: Regex extracting the numeric site index from ids like ``N3`` / ``S2:N3``.
_SITE_INDEX_RE = re.compile(r"N(\d+)$")

#: Default profiles: LAN-ish intra-DC links, ~15 ms cross-DC links.
DEFAULT_INTRA_PROFILE = LinkProfile(base=0.0004, jitter=0.0001)
DEFAULT_CROSS_PROFILE = LinkProfile(base=0.015, jitter=0.002)


class GeoTopology:
    """A region-aware link map: which site lives where, what each link costs.

    Every site is assigned to a named region (a datacenter); the delay of a
    message depends on the *link* it crosses: intra-region links use the
    ``intra`` profile, cross-region links the ``cross`` profile.

    Sites are striped round-robin over ``regions`` by their id's numeric
    suffix: site ``N<k>`` (any prefix) lands in
    ``regions[(k - 1) % len(regions)]``, e.g. with ``("eu", "us", "ap")``:
    N1→eu, N2→us, N3→ap, N4→eu...  The prefix does not matter, so one
    topology covers flat clusters (``N3``) and sharded ones (``S2:N3``).
    """

    def __init__(
        self,
        regions: Sequence[str],
        *,
        intra: LinkProfile = DEFAULT_INTRA_PROFILE,
        cross: LinkProfile = DEFAULT_CROSS_PROFILE,
    ) -> None:
        if not regions:
            raise NetworkError("a geo topology needs at least one region")
        self._regions: Tuple[str, ...] = tuple(regions)
        self._intra = intra
        self._cross = cross

    # --------------------------------------------------------------- queries
    def region_of(self, site: SiteId) -> str:
        """The region hosting ``site``."""
        match = _SITE_INDEX_RE.search(site)
        if match is None:
            raise NetworkError(f"site {site!r} is assigned to no region")
        return self._regions[(int(match.group(1)) - 1) % len(self._regions)]

    def profile(self, sender: SiteId, receiver: SiteId) -> LinkProfile:
        """The latency profile of the link ``sender -> receiver``."""
        if self.region_of(sender) == self.region_of(receiver):
            return self._intra
        return self._cross

    def link_profiles(self) -> Tuple[LinkProfile, ...]:
        """Every distinct profile the topology can produce."""
        return (self._intra, self._cross)

    def one_way_spread(self) -> float:
        """Spread between the cheapest and the dearest link's base delay.

        The geo-divergence experiment uses twice this value (the RTT spread)
        as its x-axis: the wider the spread, the earlier messages from near
        senders overtake messages from far ones and the further spontaneous
        order degrades.
        """
        bases = [profile.base for profile in self.link_profiles()]
        return max(bases) - min(bases)


class GeoLatency(LatencyModel):
    """Per-link latency drawn from a :class:`GeoTopology`.

    The delay depends on *which* link a message crosses: there is no
    shared-medium component (datacenters do not share an Ethernet segment),
    the whole delay is the link's base plus exponential jitter, per receiver.
    """

    __slots__ = ("topology",)

    def __init__(self, topology: GeoTopology) -> None:
        self.topology = topology

    def shared_delay(self, stream: RandomStream) -> float:
        return 0.0

    def receiver_delay(self, sender: SiteId, receiver: SiteId, stream: RandomStream) -> float:
        profile = self.topology.profile(sender, receiver)
        delay = profile.base
        if profile.jitter > 0.0:
            delay += stream.exponential(profile.jitter)
        return delay
