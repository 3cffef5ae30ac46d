"""Verification of the Atomic Broadcast with Optimistic Delivery properties.

Section 2.1 of the paper specifies five properties; this module checks them
over the per-site delivery logs of a finished simulation run:

* Termination      — every broadcast message was Opt- and TO-delivered at
                     every (up) site.
* Global Agreement — the sets of Opt-/TO-delivered messages agree across sites.
* Local Agreement  — every Opt-delivered message was eventually TO-delivered.
* Global Order     — all sites TO-deliver in the same order.
* Local Order      — each site Opt-delivers a message before TO-delivering it.

The paper states the agreement properties for *correct* sites.  With real
crash semantics an endpoint carries two recovery artefacts the checker must
honour: ``transfer_covered`` (messages whose transactions reached the site
through redo-log state transfer instead of delivery — they count as
delivered) and ``crash_voided`` (deliveries destroyed by a crash of the site
— the crashed incarnation is excused from Local Agreement).  Synthetic
gap-fill no-ops (negative ids, named ``noop:<position>``) are
protocol-internal and are excluded from the reference message set.
"""

from __future__ import annotations

from itertools import chain, compress, count, zip_longest
from typing import Callable, Collection, Dict, Iterable, Iterator, List, Optional

from ..broadcast.interfaces import AtomicBroadcastEndpoint, is_noop_fill_id
from ..errors import VerificationError
from ..simulation.kernel import flag_serial, serial_flags
from ..types import MessageId, SiteId


class BroadcastPropertyReport:
    """Result of checking the five OAB properties."""

    __slots__ = ("ok", "violations")

    def __init__(self, ok: bool) -> None:
        self.ok = ok
        self.violations: List[str] = []

    def raise_if_violated(self) -> None:
        """Raise :class:`VerificationError` when any property was violated."""
        if not self.ok:
            raise VerificationError(
                "atomic broadcast properties violated: " + "; ".join(self.violations)
            )


def check_broadcast_properties(
    endpoints: Dict[SiteId, AtomicBroadcastEndpoint],
    *,
    expected_broadcasts: Optional[Iterable[MessageId]] = None,
) -> BroadcastPropertyReport:
    """Check the OAB properties over the delivery logs of ``endpoints``.

    ``expected_broadcasts`` — the identifiers returned by ``broadcast()``
    calls; when omitted, the union of all TO-delivery logs is used as the
    reference set (sufficient for Global Agreement / Order but weaker for
    Termination).  The check holds one byte per message serial (whether the
    message is in the reference set, and whether some site never
    TO-delivered it) and one flag byte per row of one site at a time.
    """
    report = BroadcastPropertyReport(ok=True)
    if not endpoints:
        return report
    site_ids = sorted(endpoints)

    if expected_broadcasts is None:
        expected_broadcasts = chain.from_iterable(
            endpoint.to_delivery_log for endpoint in endpoints.values()
        )
    reference = serial_flags()
    for message_id in expected_broadcasts:
        if message_id < 0:
            continue  # a gap fill's id
        if message_id < len(reference):
            reference[message_id] = _EXPECTED
        else:
            flag_serial(reference, message_id)

    # Termination, Agreement and Local Order, site by site.  Messages some
    # site never TO-delivered leave the Global Order comparison.
    local_order: List[str] = []
    for site_id in site_ids:
        _check_site(report, site_id, endpoints[site_id], reference, local_order)

    # Global Order: the TO-delivery sequences agree (restricted to messages
    # delivered everywhere, which matters if a run was cut short).
    size = len(reference)

    def delivered_everywhere(site_id: SiteId) -> Iterator[MessageId]:
        return (
            message_id
            for message_id in endpoints[site_id].to_delivery_log
            if 0 <= message_id < size and reference[message_id] == _EXPECTED
        )

    reference_site = site_ids[0]
    for site_id in site_ids[1:]:
        pairs = zip_longest(delivered_everywhere(reference_site), delivered_everywhere(site_id))
        if any(first != second for first, second in pairs):
            report.ok = False
            report.violations.append(
                f"Global Order: TO-delivery order differs between {reference_site} "
                f"and {site_id}"
            )
    if local_order:
        report.ok = False
        report.violations.extend(local_order)
    return report


#: Flags of a message serial in the reference column: the message is in the
#: reference set (``flag_serial`` sets 1) / some site never TO-delivered it.
_EXPECTED, _UNDELIVERED = 1, 2
#: Flags of a row in ``_check_site``: its message is in the Opt log / TO log.
_OPT, _TO = 1, 2


def _check_site(
    report: BroadcastPropertyReport,
    site_id: SiteId,
    endpoint: AtomicBroadcastEndpoint,
    reference: bytearray,
    local_order: List[str],
) -> None:
    """Termination and Agreement at one site, its Local Order violations
    into ``local_order``, and what it never TO-delivered into the
    ``reference`` column's ``_UNDELIVERED`` flags.

    Every logged id has a row (``endpoint.row_of`` by serial, or
    ``endpoint.noop_row_of`` for a gap fill), so one flag byte per row says
    which logs hold it; the row's time columns are the Local Order evidence.
    Ids are named only in violations.
    """
    row_of, noop_row_of = endpoint.row_of, endpoint.noop_row_of
    known = len(row_of)
    flags = bytearray(len(endpoint.payloads))
    for flag, log in ((_OPT, endpoint.opt_delivery_log), (_TO, endpoint.to_delivery_log)):
        for message_id in log:
            flags[row_of[message_id] if message_id >= 0 else noop_row_of[message_id]] |= flag
    # Messages a recovered site obtained through state transfer count as
    # delivered.
    covered = endpoint.transfer_covered
    missing_opt: List[MessageId] = []
    missing_to: List[MessageId] = []
    for message_id in compress(count(), reference):
        row = row_of[message_id] if message_id < known else -1
        flag = 0 if row < 0 else flags[row]
        if not flag & _TO:
            reference[message_id] |= _UNDELIVERED
            if message_id not in covered:
                missing_to.append(message_id)
        if not flag & _OPT and message_id not in covered:
            missing_opt.append(message_id)
    name = endpoint.name
    _violate(
        report, f"Termination/Agreement: site {site_id} never Opt-delivered", missing_opt, name
    )
    _violate(
        report, f"Termination/Agreement: site {site_id} never TO-delivered", missing_to, name
    )
    # Local Agreement: opt-delivered implies eventually TO-delivered —
    # unless the site crashed in between (the delivery was voided with
    # the incarnation) or the transaction arrived via state transfer.
    voided = endpoint.crash_voided
    never_confirmed = {
        message_id
        for message_id in endpoint.opt_delivery_log
        if not flags[row_of[message_id] if message_id >= 0 else noop_row_of[message_id]] & _TO
        and message_id not in covered
        and message_id not in voided
    }
    _violate(
        report, f"Local Agreement: site {site_id} Opt-delivered but never TO-delivered",
        never_confirmed, name,
    )

    # Local Order: Opt-deliver happens before TO-deliver.
    for message_id in endpoint.to_delivery_log:
        # Gap fills carry no payload and skip Opt-delivery.
        if (
            not flags[row_of[message_id] if message_id >= 0 else noop_row_of[message_id]] & _OPT
            and not is_noop_fill_id(message_id)
        ):
            local_order.append(
                f"Local Order: site {site_id} TO-delivered {name(message_id)} without "
                "Opt-delivering it"
            )
    opt_times, to_times = endpoint.opt_times, endpoint.to_times
    # The latest row of each id; an id is looked up only for a violation.
    for row in chain(filter((0).__le__, row_of), noop_row_of.values()):
        to_time = to_times[row]
        if to_time >= 0.0 and not 0.0 <= opt_times[row] <= to_time:
            message_id = row_of.index(row) if row in row_of else next(
                noop for noop, noop_row in noop_row_of.items() if noop_row == row
            )
            local_order.append(
                f"Local Order: site {site_id} TO-delivered {name(message_id)} before "
                "Opt-delivering it"
            )


def _violate(
    report: BroadcastPropertyReport,
    violation: str,
    message_ids: Collection[MessageId],
    name: Callable[[MessageId], str],
) -> None:
    """Report ``violation`` of ``message_ids``, if any, naming the first three."""
    if message_ids:
        report.ok = False
        examples = [name(message_id) for message_id in sorted(message_ids)[:3]]
        report.violations.append(
            f"{violation} {len(message_ids)} messages (e.g. {examples})"
        )
