"""1-copy-serializability verification (paper Section 2.2 and Theorem 4.2).

The correctness criterion of the paper: despite the existence of multiple
copies, the system behaves like one logical copy and only allows
serializable executions.  A replicated history is 1-copy-serializable when
it has the same reads-from relation and the same final writes as a serial
history over one copy (Bernstein, Hadzilacos and Goodman, 1987, ch. 8).
By Lemma 4.1 and Theorem 4.2 that serial history is the definitive order,
the order of the transactions' ``global_index``, so the check replays it
once over every site's history, in linear time and without a graph:

1. every site committed the same set of update transactions;
2. each transaction committed at the same ``global_index`` at every site;
3. each site commits every conflict class, and writes every key, in
   increasing index;
4. every read returned the version of the last writer of its key before the
   reader in index order, or ``MultiVersionStore.INITIAL_INDEX`` when there
   is none (the evidence is ``SiteHistory.read_versions``).

Rules 2 and 3 make every site's final writes those of the definitive order;
rule 4 gives every site its reads-from relation.
"""

from __future__ import annotations

from array import array
from typing import Dict, List

from ..database.history import SiteHistory
from ..database.storage import MultiVersionStore
from ..errors import VerificationError
from ..types import ConflictClassId, ObjectKey, SiteId, TransactionId


class OneCopyReport:
    """Result of a 1-copy-serializability check."""

    __slots__ = ("ok", "violations")

    def __init__(self, ok: bool) -> None:
        self.ok = ok
        self.violations: List[str] = []

    def _violate(self, violation: str) -> None:
        self.ok = False
        self.violations.append(violation)

    def raise_if_violated(self) -> None:
        """Raise :class:`VerificationError` when the check failed."""
        if not self.ok:
            raise VerificationError(
                "1-copy-serializability violated: " + "; ".join(self.violations)
            )


def check_one_copy_serializability(histories: Dict[SiteId, SiteHistory]) -> OneCopyReport:
    """Check 1-copy-serializability of the per-site histories.

    The replay reads the histories' columns and builds no record per commit.
    """
    report = OneCopyReport(ok=True)
    if not histories:
        return report
    site_ids = sorted(histories)
    reference_site = site_ids[0]
    reference = histories[reference_site]
    for site_id in site_ids:
        _replay_site(report, site_id, histories[site_id], reference_site, reference)
    return report


def _replay_site(
    report: OneCopyReport,
    site_id: SiteId,
    history: SiteHistory,
    reference_site: SiteId,
    reference: SiteHistory,
) -> None:
    """Check one site's history against rules 1-4 of the module docstring."""
    # Local commit order: the reference site's transactions at its indices,
    # classes and key writes in increasing index.  Row ``r``'s reads start at
    # ``read_starts[r]`` in the site's read-version column.  Keys are read
    # from the flat key column by offset.  Ids are named only in violations.
    ids, classes, indices = history.ids, history.classes, history.indices
    keys, starts = history.keys, history.key_starts
    write_ends, read_ends = history.write_ends, history.read_ends
    name = history.name_of
    reference_rows, reference_indices = reference.row_of, reference.indices
    known = len(reference_rows)
    extra: List[TransactionId] = []
    last_of_class: Dict[ConflictClassId, int] = {}
    last_write: Dict[ObjectKey, int] = {}
    read_starts = array("q")
    offset = 0
    rows = enumerate(zip(ids, classes, indices, starts, write_ends, read_ends))
    for row, (transaction_id, conflict_class, index, start, write_end, read_end) in rows:
        reference_row = reference_rows[transaction_id] if transaction_id < known else -1
        if reference_row < 0:
            extra.append(transaction_id)
        elif index != reference_indices[reference_row]:
            report._violate(
                f"{name(transaction_id)} committed at index "
                f"{reference_indices[reference_row]} at {reference_site} "
                f"but at index {index} at {site_id}"
            )
        previous = last_of_class.get(conflict_class)
        if previous is not None and indices[previous] >= index:
            report._violate(
                f"site {site_id} commits class {conflict_class} out of index "
                f"order: {name(transaction_id)} (index {index}) after "
                f"{name(ids[previous])} (index {indices[previous]})"
            )
        last_of_class[conflict_class] = row
        for key in keys[start:write_end]:
            previous = last_write.get(key)
            if previous is not None and indices[previous] >= index:
                report._violate(
                    f"site {site_id} writes {key!r} out of index order: "
                    f"{name(transaction_id)} (index {index}) after "
                    f"{name(ids[previous])} (index {indices[previous]})"
                )
            last_write[key] = row
        read_starts.append(offset)
        # A read end before the write end means the reads are the writes.
        offset += write_end - start if read_end < write_end else read_end - write_end
    if extra:
        report._violate(
            f"site {site_id} committed {len(extra)} transactions unknown to "
            f"{reference_site} (e.g. {[name(t) for t in sorted(extra)[:3]]})"
        )
    if len(ids) - len(extra) != len(reference):
        missing = [t for t in reference.ids if t not in history]
        report._violate(
            f"site {site_id} is missing {len(missing)} transactions committed at "
            f"{reference_site} (e.g. {[name(t) for t in sorted(missing)[:3]]})"
        )
    versions = history.read_versions
    if offset != len(versions):
        report._violate(
            f"site {site_id} recorded {len(versions)} read versions for "
            f"{offset} read keys"
        )
        return

    # The definitive order: every read returns the last write before it.
    last_writer: Dict[ObjectKey, int] = {}
    initial = MultiVersionStore.INITIAL_INDEX
    previous_index = previous_row = None
    for row in sorted(range(len(ids)), key=indices.__getitem__):
        index = indices[row]
        if index == previous_index:
            report._violate(
                f"site {site_id} commits {name(ids[previous_row])} and "
                f"{name(ids[row])} at the same index {index}"
            )
        previous_index, previous_row = index, row
        start, write_end, read_end = starts[row], write_ends[row], read_ends[row]
        if read_end < write_end:
            read_from, read_to = start, write_end
        else:
            read_from, read_to = write_end, read_end
        for position, key in enumerate(keys[read_from:read_to], read_starts[row]):
            seen = versions[position]
            last = last_writer.get(key, initial)
            if seen < last:
                report._violate(
                    f"site {site_id}: {name(ids[row])} (index {index}) read {key!r} "
                    f"at version {seen}, but its last writer before it is at index "
                    f"{last} (stale read)"
                )
            elif seen > last:
                report._violate(
                    f"site {site_id}: {name(ids[row])} (index {index}) read {key!r} "
                    f"at version {seen}, later than its last writer before it at "
                    f"index {last}"
                )
        for key in keys[start:write_end]:
            last_writer[key] = index
