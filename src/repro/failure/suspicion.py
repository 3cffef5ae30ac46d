"""Suspicion-driven coordinator election: Ω on top of the ◇P detectors.

The paper's optimistic atomic broadcast runs in an asynchronous system where
crash detection is *unreliable* (Chandra & Toueg [6]): the coordinator role
must move on the strength of suspicions, not ground truth, and a wrong
suspicion must be survivable.  This module takes the per-site
:class:`~repro.failure.detector.FailureDetector` outputs and turns them into
the classic Ω leader-election rule:

    the coordinator is the lowest-ranked site that is not *condemned*,
    where a site is condemned when a quorum (majority) of the other
    non-condemned sites' detectors currently suspect it.

The quorum requirement is what keeps a single partitioned or slow observer
from triggering a failover on its own; the Ω rule (rather than "promote the
next survivor and stick with it") is what makes a *false* suspicion
self-correcting — when heartbeats resume, the suspicion is lifted, the site
is no longer condemned, and the role returns to it (demotion of the stand-in
coordinator, re-trust of the wrongly suspected one).

The governor is the cluster's one promotion path.  Its inputs are either
heartbeat detectors or, in oracle mode, a *perfect* detector that suspects
exactly the sites that are down — so oracle mode follows the same quorum and
Ω rules, it just condemns at the crash instant.  The resulting view change
is executed atomically across the replica group (every endpoint repoints in
one simulation event).  That atomicity is a stated modelling assumption
(``docs/recovery.md``) standing in for the consensus round the paper's
fallback would run among the live sites, so the simulation cannot
split-brain even though the *inputs* to the decision are unreliable.

The crash manager stays the fault *injector*.  A crash destroys volatile
state and silences the site's heartbeat detector (a dead process sends no
heartbeats); with heartbeat detectors the promotion decision is computed
from the surviving sites' suspicions — a real crash is only acted on once
the detectors *detect* it, and a latency spike alone — no crash anywhere —
can exercise the failover path.  The governor never reads ground-truth
liveness itself: condemned sites are excluded from the electorate in its
place (a stopped detector's frozen suspicion state must not be able to veto
a quorum forever), computed as a monotone fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Protocol, Sequence, Set

from ..errors import ReplicationError
from ..types import SiteId
from .detector import SuspicionListener

#: Callback invoked with the newly elected coordinator site.
CoordinatorChangeListener = Callable[[SiteId], None]


class SuspicionSource(Protocol):
    """What the governor reads of one site's detector."""

    def is_suspected(self, peer: SiteId) -> bool: ...

    def add_listener(self, listener: SuspicionListener) -> None: ...


@dataclass(frozen=True)
class FailureDetectionConfig:
    """Tuning of suspicion-driven failover (``None`` on a cluster = oracle mode).

    Attributes
    ----------
    heartbeat_interval:
        How often each site's detector multicasts heartbeats to its group.
    initial_timeout:
        Initial suspicion timeout; adapted upward on false suspicion.
    timeout_increment:
        Added to a peer's timeout each time it was wrongly suspected.
    quorum:
        Number of observers whose suspicion condemns a site, at most the
        group size minus one (the governor rejects more).  ``None``
        (default) uses a majority of the non-condemned sites other than the
        accused.
    """

    heartbeat_interval: float = 0.010
    initial_timeout: float = 0.050
    timeout_increment: float = 0.020
    quorum: Optional[int] = None

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0.0:
            raise ReplicationError("heartbeat interval must be positive")
        if self.initial_timeout <= 0.0:
            raise ReplicationError("suspicion timeout must be positive")
        if self.timeout_increment < 0.0:
            raise ReplicationError("timeout increment cannot be negative")
        if self.quorum is not None and self.quorum < 1:
            raise ReplicationError("a suspicion quorum needs at least one observer")


class SuspicionFailoverGovernor:
    """Elects the coordinator of one replica group from detector suspicions.

    Parameters
    ----------
    ranking:
        The group's sites in promotion-preference order (the existing
        convention: lowest site id first).
    detectors:
        One suspicion source per site of the group: a started
        :class:`~repro.failure.detector.FailureDetector`, or the cluster's
        perfect detector in oracle mode.  The governor subscribes to every
        detector's suspicion changes.
    on_coordinator_change:
        Invoked with the new coordinator whenever the election result
        changes.  The callback must apply the view change atomically (the
        cluster facade repoints every endpoint before returning).
    quorum:
        Fixed condemnation quorum; ``None`` = majority of the non-condemned
        observers other than the accused.  A site has at most
        ``len(ranking) - 1`` observers, so a larger quorum could never
        condemn anyone and is rejected.
    """

    def __init__(
        self,
        ranking: Sequence[SiteId],
        detectors: Mapping[SiteId, SuspicionSource],
        on_coordinator_change: CoordinatorChangeListener,
        *,
        quorum: Optional[int] = None,
    ) -> None:
        if not ranking:
            raise ReplicationError("a governor needs at least one site")
        missing = [site for site in ranking if site not in detectors]
        if missing:
            raise ReplicationError(f"no failure detector for sites {missing!r}")
        if quorum is not None and quorum > len(ranking) - 1:
            raise ReplicationError(
                f"a suspicion quorum of {quorum} exceeds the {len(ranking) - 1} "
                "observers a site has, so no site could ever be condemned"
            )
        self._ranking: List[SiteId] = list(ranking)
        self._detectors = dict(detectors)
        self._on_change = on_coordinator_change
        self._quorum_override = quorum
        self._coordinator: SiteId = self._ranking[0]
        for detector in self._detectors.values():
            detector.add_listener(self._on_suspicion_change)

    # --------------------------------------------------------------- queries
    def coordinator(self) -> SiteId:
        """The currently elected coordinator."""
        return self._coordinator

    # ------------------------------------------------------------ membership
    def site_down(self, site: SiteId) -> None:
        """The process at ``site`` stopped running.

        Deliberately *not* a vote: ground-truth liveness enters the election
        only through the detectors.  Heartbeat detectors will detect the
        crash (missing heartbeats condemn the site) and act on it then; a
        perfect detector (oracle mode) already reports it, so this
        re-election is where oracle mode promotes.
        """
        self._reevaluate()

    def site_up(self, site: SiteId) -> None:
        """The process at ``site`` is running again (same non-vote contract)."""
        self._reevaluate()

    # -------------------------------------------------------------- internal
    def _on_suspicion_change(self, peer: SiteId, suspected: bool) -> None:
        self._reevaluate()

    def _condemned_sites(self) -> Set[SiteId]:
        """The condemned set, as a monotone fixed point.

        A condemned site is excluded from the electorate of every *other*
        accusation: a crashed observer's detector is frozen (it can never
        suspect anyone new), so leaving it in the electorate would let two
        staggered crashes make the quorum for the second one unreachable.
        Excluding by condemnation — not by ground-truth liveness — keeps the
        decision a pure function of the detectors' outputs; the iteration
        only ever adds sites, so it terminates.
        """
        condemned: Set[SiteId] = set()
        while True:
            grew = False
            for accused in self._ranking:
                if accused in condemned:
                    continue
                electorate = [
                    observer
                    for observer in self._ranking
                    if observer != accused and observer not in condemned
                ]
                if not electorate:
                    continue
                quorum = self._quorum_override
                if quorum is None:
                    quorum = len(electorate) // 2 + 1
                suspectors = sum(
                    1
                    for observer in electorate
                    if self._detectors[observer].is_suspected(accused)
                )
                if suspectors >= quorum:
                    condemned.add(accused)
                    grew = True
            if not grew:
                return condemned

    def _reevaluate(self) -> None:
        """Apply the Ω rule; fire the view change when the result moves."""
        condemned = self._condemned_sites()
        target: Optional[SiteId] = None
        for candidate in self._ranking:
            if candidate not in condemned:
                target = candidate
                break
        # With every site condemned there is no defensible choice; keep the
        # current coordinator rather than thrash the role.
        if target is None or target == self._coordinator:
            return
        self._coordinator = target
        self._on_change(target)
