"""1-copy-serializability verification (paper Section 2.2 and Theorem 4.2).

The correctness criterion of the paper: despite the existence of multiple
copies, the system behaves like one logical copy and only allows
serializable executions.  Operationally we check, over the per-site commit
histories produced by a simulation run:

1. every site committed the same set of update transactions
   (the "1-copy" part — all copies performed the same work);
2. conflicting transactions committed in the same relative order at every
   site (conflict equivalence of the local histories);
3. the union of the local histories has an acyclic conflict graph
   (serializability of the single logical history);
4. optionally, that the per-class commit orders follow the definitive total
   order established by the atomic broadcast (Lemma 4.1).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..database.history import ConflictGraph, SiteHistory
from ..errors import VerificationError
from ..types import SiteId, TransactionId


class OneCopyReport:
    """Result of a 1-copy-serializability check."""

    __slots__ = (
        "ok",
        "violations",
        "sites_checked",
        "transactions_checked",
        "classes_checked",
        "conflict_edges",
    )

    def __init__(self, ok: bool, sites_checked: int = 0) -> None:
        self.ok = ok
        self.violations: List[str] = []
        self.sites_checked = sites_checked
        self.transactions_checked = self.classes_checked = 0
        #: Edges of the union conflict graph the serializability check walked.
        self.conflict_edges = 0

    def raise_if_violated(self) -> None:
        """Raise :class:`VerificationError` when the check failed."""
        if not self.ok:
            raise VerificationError(
                "1-copy-serializability violated: " + "; ".join(self.violations)
            )


def check_one_copy_serializability(
    histories: Dict[SiteId, SiteHistory],
    *,
    definitive_order: Optional[Sequence[TransactionId]] = None,
) -> OneCopyReport:
    """Check 1-copy-serializability of the per-site histories.

    ``definitive_order`` — when given (the TO-delivery order of the broadcast)
    — additionally checks Lemma 4.1: per conflict class, every site commits in
    exactly the definitive order.
    """
    report = OneCopyReport(ok=True, sites_checked=len(histories))
    if not histories:
        return report

    site_ids = sorted(histories)
    reference_site = site_ids[0]
    reference = histories[reference_site]

    # 1. Same transaction set everywhere.
    reference_set = set(reference.transaction_ids())
    report.transactions_checked = len(reference_set)
    for site_id in site_ids[1:]:
        other_set = set(histories[site_id].transaction_ids())
        missing = reference_set - other_set
        extra = other_set - reference_set
        if missing:
            report.ok = False
            report.violations.append(
                f"site {site_id} is missing {len(missing)} transactions committed at "
                f"{reference_site} (e.g. {sorted(missing)[:3]})"
            )
        if extra:
            report.ok = False
            report.violations.append(
                f"site {site_id} committed {len(extra)} transactions unknown to "
                f"{reference_site} (e.g. {sorted(extra)[:3]})"
            )

    # 2. Identical per-class commit order at every site.
    class_orders = {
        site_id: history.commit_orders_by_class() for site_id, history in histories.items()
    }
    classes = set()
    for orders in class_orders.values():
        classes.update(orders)
    report.classes_checked = len(classes)
    for conflict_class in sorted(classes):
        reference_order = class_orders[reference_site].get(conflict_class, [])
        reference_members = set(reference_order)
        for site_id in site_ids[1:]:
            other_order = class_orders[site_id].get(conflict_class, [])
            other_members = set(other_order)
            common = [t for t in reference_order if t in other_members]
            other_common = [t for t in other_order if t in reference_members]
            if common != other_common:
                report.ok = False
                report.violations.append(
                    f"class {conflict_class}: commit order differs between "
                    f"{reference_site} and {site_id}"
                )

    # 3. Serializability of the union history.
    union_graph = ConflictGraph()
    for history in histories.values():
        union_graph.add_history(history.committed_transactions())
    report.conflict_edges = union_graph.edge_count()
    cycle = union_graph.find_cycle()
    if cycle is not None:
        report.ok = False
        report.violations.append(f"union conflict graph has a cycle: {cycle}")

    # 4. Per-class orders follow the definitive total order (Lemma 4.1).
    if definitive_order is not None:
        definitive_positions = {
            transaction_id: position for position, transaction_id in enumerate(definitive_order)
        }
        for site_id, orders in class_orders.items():
            for conflict_class, order in sorted(orders.items()):
                known = [t for t in order if t in definitive_positions]
                positions = [definitive_positions[t] for t in known]
                if positions != sorted(positions):
                    report.ok = False
                    report.violations.append(
                        f"site {site_id}, class {conflict_class}: commit order does not "
                        "follow the definitive total order"
                    )
    return report
