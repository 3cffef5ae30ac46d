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
gap-fill no-ops (``noop:<position>``) are protocol-internal and are excluded
from the reference message set.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from ..broadcast.interfaces import AtomicBroadcastEndpoint, is_noop_fill_id
from ..errors import VerificationError
from ..types import MessageId, SiteId


class BroadcastPropertyReport:
    """Result of checking the five OAB properties."""

    __slots__ = ("ok", "violations", "messages_checked", "sites_checked")

    def __init__(self, ok: bool, sites_checked: int = 0) -> None:
        self.ok = ok
        self.violations: List[str] = []
        self.messages_checked = 0
        self.sites_checked = sites_checked

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
    Termination).
    """
    report = BroadcastPropertyReport(ok=True, sites_checked=len(endpoints))
    if not endpoints:
        return report
    site_ids = sorted(endpoints)

    if expected_broadcasts is None:
        reference_set = set()
        for endpoint in endpoints.values():
            reference_set.update(endpoint.to_delivery_log)
    else:
        reference_set = set(expected_broadcasts)
    reference_set = {
        message_id for message_id in reference_set if not is_noop_fill_id(message_id)
    }
    report.messages_checked = len(reference_set)

    # Termination + Global Agreement (set equality of deliveries).  Messages
    # a recovered site obtained through state transfer count as delivered.
    for site_id in site_ids:
        endpoint = endpoints[site_id]
        covered = getattr(endpoint, "transfer_covered", set())
        voided = getattr(endpoint, "crash_voided", set())
        opt_set = set(endpoint.opt_delivery_log)
        to_set = set(endpoint.to_delivery_log)
        missing_opt = reference_set - opt_set - covered
        missing_to = reference_set - to_set - covered
        if missing_opt:
            report.ok = False
            report.violations.append(
                f"Termination/Agreement: site {site_id} never Opt-delivered "
                f"{len(missing_opt)} messages (e.g. {sorted(missing_opt)[:3]})"
            )
        if missing_to:
            report.ok = False
            report.violations.append(
                f"Termination/Agreement: site {site_id} never TO-delivered "
                f"{len(missing_to)} messages (e.g. {sorted(missing_to)[:3]})"
            )
        # Local Agreement: opt-delivered implies eventually TO-delivered —
        # unless the site crashed in between (the delivery was voided with
        # the incarnation) or the transaction arrived via state transfer.
        never_confirmed = opt_set - to_set - covered - voided
        if never_confirmed:
            report.ok = False
            report.violations.append(
                f"Local Agreement: site {site_id} Opt-delivered but never TO-delivered "
                f"{len(never_confirmed)} messages (e.g. {sorted(never_confirmed)[:3]})"
            )

    # Global Order: the TO-delivery sequences agree (restricted to messages
    # delivered everywhere, which matters if a run was cut short).
    common = set(reference_set)
    for endpoint in endpoints.values():
        common &= set(endpoint.to_delivery_log)
    reference_site = site_ids[0]
    reference_order = [
        message_id
        for message_id in endpoints[reference_site].to_delivery_log
        if message_id in common
    ]
    for site_id in site_ids[1:]:
        other_order = [
            message_id
            for message_id in endpoints[site_id].to_delivery_log
            if message_id in common
        ]
        if other_order != reference_order:
            report.ok = False
            report.violations.append(
                f"Global Order: TO-delivery order differs between {reference_site} "
                f"and {site_id}"
            )

    # Local Order: Opt-deliver happens before TO-deliver at each site.
    for site_id in site_ids:
        endpoint = endpoints[site_id]
        opt_positions = {
            message_id: position
            for position, message_id in enumerate(endpoint.opt_delivery_log)
        }
        for message_id in endpoint.to_delivery_log:
            if is_noop_fill_id(message_id):
                continue  # gap fills carry no payload and skip Opt-delivery
            if message_id not in opt_positions:
                report.ok = False
                report.violations.append(
                    f"Local Order: site {site_id} TO-delivered {message_id} without "
                    "Opt-delivering it"
                )
                continue
            record = endpoint.message(message_id)
            if record is not None and record.opt_delivered_at is not None:
                if (
                    record.to_delivered_at is not None
                    and record.to_delivered_at < record.opt_delivered_at
                ):
                    report.ok = False
                    report.violations.append(
                        f"Local Order: site {site_id} TO-delivered {message_id} before "
                        "Opt-delivering it"
                    )
    return report
