"""Network partition injection.

A :class:`PartitionController` decides whether two sites can currently talk
to each other.  While a partition separates them, envelopes are held back by
the transport and flushed when the partition heals, which preserves the
paper's reliable-channel assumption (a message sent is *eventually*
received).

Two failure shapes are modelled:

* **Symmetric group partitions** (:meth:`isolate` / :meth:`heal`): the
  classic split — sites inside a group talk to each other but not to
  anyone outside, in either direction.
* **Directed link failures** (:meth:`sever` / :meth:`restore`): one-way
  loss of connectivity, so A can still hear B while B no longer hears A.
  Asymmetric reachability is what makes suspicion-based failure detection
  genuinely unreliable — the suspected site may be alive and even still
  receiving — and is common at geo scale (unidirectional route flaps,
  asymmetric BGP paths).

History entries are stamped with the controller's clock (the transport
passes the kernel's ``now``) unless the caller supplies an explicit
``at_time``, so :attr:`history` is chronologically truthful without every
call site having to thread the current virtual time.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from ..errors import NetworkError
from ..types import SiteId

#: A directed link: messages flowing ``sender -> receiver``.
Link = Tuple[SiteId, SiteId]

#: History payload: a site group (isolate/heal) or a directed link.
HistorySites = Union[FrozenSet[SiteId], Link]


class PartitionController:
    """Tracks which groups of sites are currently separated from each other."""

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        # Maps each site to its partition group id.  Sites not mentioned in
        # any partition share the implicit group ``None`` (fully connected).
        self._group_of: Dict[SiteId, int] = {}
        self._next_group = 0
        # Directed links currently severed (sender -> receiver blocked).
        self._severed: Set[Link] = set()
        self._history: List[Tuple[float, str, HistorySites]] = []
        self._clock = clock
        #: ``True`` while no isolated group and no severed link exists, so
        #: every site reaches every other and :meth:`connected` need not be
        #: asked.  ``isolate`` / ``heal`` / ``sever`` / ``restore`` keep it
        #: current.
        self.intact = True

    def _update_intact(self) -> None:
        self.intact = not self._group_of and not self._severed

    def _stamp(self, at_time: Optional[float]) -> float:
        if at_time is not None:
            return at_time
        if self._clock is not None:
            return self._clock()
        return 0.0

    # ----------------------------------------------------------------- state
    def connected(self, sender: SiteId, receiver: SiteId) -> bool:
        """Return whether ``sender`` can currently reach ``receiver``.

        Connectivity is *directed*: a severed link blocks only the named
        direction, while group partitions block both.
        """
        if sender == receiver:
            return True
        if (sender, receiver) in self._severed:
            return False
        return self._group_of.get(sender) == self._group_of.get(receiver)

    # ------------------------------------------------------------ operations
    def isolate(self, sites: Iterable[SiteId], at_time: Optional[float] = None) -> None:
        """Split ``sites`` into their own partition group.

        Every listed site can talk to the other listed sites but not to any
        site outside the group (and vice versa).
        """
        group = frozenset(sites)
        if not group:
            raise NetworkError("cannot create an empty partition group")
        group_id = self._next_group
        self._next_group += 1
        for site in group:
            self._group_of[site] = group_id
        self._update_intact()
        self._history.append((self._stamp(at_time), "isolate", group))

    def sever(
        self, sender: SiteId, receiver: SiteId, at_time: Optional[float] = None
    ) -> None:
        """Sever the directed link ``sender -> receiver``.

        ``receiver`` stops hearing from ``sender`` while traffic in the
        opposite direction still flows (unless severed separately).
        Envelopes in the blocked direction are held by the transport and
        flushed on :meth:`restore`, so channels stay reliable.
        """
        if sender == receiver:
            raise NetworkError("cannot sever a site's link to itself")
        self._severed.add((sender, receiver))
        self._update_intact()
        self._history.append((self._stamp(at_time), "sever", (sender, receiver)))

    def restore(
        self, sender: SiteId, receiver: SiteId, at_time: Optional[float] = None
    ) -> None:
        """Restore the directed link ``sender -> receiver`` (no-op if intact)."""
        if (sender, receiver) not in self._severed:
            return
        self._severed.discard((sender, receiver))
        self._update_intact()
        self._history.append((self._stamp(at_time), "restore", (sender, receiver)))

    def heal(
        self,
        sites: Optional[Iterable[SiteId]] = None,
        at_time: Optional[float] = None,
    ) -> None:
        """Remove partitions.

        With ``sites`` given, only those sites rejoin the fully connected
        group and only severed links touching them are restored; without it,
        all partitions and all severed links are removed.
        """
        stamp = self._stamp(at_time)
        if sites is None:
            healed: Set[SiteId] = set(self._group_of)
            self._group_of.clear()
            for link in sorted(self._severed):
                self._history.append((stamp, "restore", link))
            self._severed.clear()
        else:
            healed = set(sites)
            for site in healed:
                self._group_of.pop(site, None)
            touching = sorted(
                link for link in self._severed if link[0] in healed or link[1] in healed
            )
            for link in touching:
                self._severed.discard(link)
                self._history.append((stamp, "restore", link))
        self._update_intact()
        self._history.append((stamp, "heal", frozenset(healed)))

    # ------------------------------------------------------------ inspection
    @property
    def history(self) -> List[Tuple[float, str, HistorySites]]:
        """Chronological list of (time, operation, sites) partition changes."""
        return list(self._history)

    def severed_links(self) -> List[Link]:
        """Return the currently severed directed links (sorted)."""
        return sorted(self._severed)
