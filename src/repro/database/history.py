"""Histories, conflict graphs and serializability (paper Section 2.2).

A history is a partial order over committed transactions that orders all
conflicting transactions.  A history is serializable when it is conflict
equivalent to some serial history, i.e. when its conflict graph is acyclic.
The per-site history recorded here is consumed by the verification layer to
check 1-copy-serializability across sites (Theorem 4.2).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from ..errors import VerificationError
from ..types import ConflictClassId, ObjectKey, SiteId, TransactionId


class CommittedTransaction(NamedTuple):
    """One committed transaction as recorded in a site's history.

    ``message_id`` is the atomic-broadcast message that carried the request;
    state transfer uses it to tell a recovering site's broadcast endpoint
    which messages are already covered and must not be delivered again.
    """

    transaction_id: TransactionId
    conflict_class: ConflictClassId
    global_index: int
    committed_at: float
    write_keys: Tuple[ObjectKey, ...] = ()
    read_keys: Tuple[ObjectKey, ...] = ()
    message_id: Optional[str] = None


class SiteHistory:
    """Commit history of one replica site, in local commit order."""

    def __init__(self, site_id: SiteId) -> None:
        self.site_id = site_id
        self._commits: List[CommittedTransaction] = []
        self._by_id: Dict[TransactionId, CommittedTransaction] = {}

    # --------------------------------------------------------------- recording
    def record_commit(self, committed: CommittedTransaction) -> None:
        """Append a committed transaction to the history."""
        if committed.transaction_id in self._by_id:
            raise VerificationError(
                f"{committed.transaction_id} committed twice at site {self.site_id}"
            )
        self._commits.append(committed)
        self._by_id[committed.transaction_id] = committed

    # ---------------------------------------------------------------- queries
    def committed_transactions(self) -> List[CommittedTransaction]:
        """Return all committed transactions in local commit order."""
        return list(self._commits)

    def transaction_ids(self) -> List[TransactionId]:
        """Return committed transaction ids in local commit order."""
        return [commit.transaction_id for commit in self._commits]

    def commit_orders_by_class(self) -> Dict[ConflictClassId, List[TransactionId]]:
        """Return every class's commit order, from one pass over the history."""
        orders: Dict[ConflictClassId, List[TransactionId]] = {}
        for commit in self._commits:
            orders.setdefault(commit.conflict_class, []).append(commit.transaction_id)
        return orders

    def classes(self) -> List[ConflictClassId]:
        """Return the conflict classes appearing in the history."""
        return sorted(self.commit_orders_by_class())

    def get(self, transaction_id: TransactionId) -> Optional[CommittedTransaction]:
        """Return the record of ``transaction_id`` (or ``None``)."""
        return self._by_id.get(transaction_id)

    def global_indices(self) -> Set[int]:
        """Return the set of definitive indices committed at this site."""
        return {commit.global_index for commit in self._commits}

    def commits_in_index_range(
        self, after_index: int, up_to: int
    ) -> List[CommittedTransaction]:
        """Commits with ``after_index < global_index <= up_to``, index-ordered.

        State transfer walks the donor's history in definitive-index order so
        the recovering site installs versions in non-decreasing index order.
        """
        selected = [
            commit
            for commit in self._commits
            if after_index < commit.global_index <= up_to
        ]
        selected.sort(key=lambda commit: commit.global_index)
        return selected

    def __len__(self) -> int:
        return len(self._commits)

    def __contains__(self, transaction_id: TransactionId) -> bool:
        return transaction_id in self._by_id


def transactions_conflict(first: CommittedTransaction, second: CommittedTransaction) -> bool:
    """Return whether two transactions conflict.

    With the paper's coarse concurrency-control model two update transactions
    conflict exactly when they belong to the same conflict class.  When
    fine-granularity read/write sets are recorded, overlapping accesses with
    at least one write also count as conflicts.
    """
    if first.conflict_class == second.conflict_class:
        return True
    first_writes = set(first.write_keys)
    second_writes = set(second.write_keys)
    if first_writes & second_writes:
        return True
    if first_writes & set(second.read_keys):
        return True
    if second_writes & set(first.read_keys):
        return True
    return False


class ConflictGraph:
    """Directed graph with an edge ``T_i -> T_j`` when ``T_i`` is ordered
    before ``T_j`` and the two transactions conflict.

    :meth:`add_history` adds only the edges to a transaction's *nearest*
    conflicting predecessors, so the graph holds a reduction of the
    conflicting-pair relation: every ordered conflicting pair is a path, and
    reachability and cycles are those of the all-pairs graph.
    """

    def __init__(self) -> None:
        self._edges: Dict[TransactionId, Set[TransactionId]] = {}
        self._nodes: Set[TransactionId] = set()

    # --------------------------------------------------------------- building
    def add_node(self, transaction_id: TransactionId) -> None:
        """Add an isolated node."""
        self._nodes.add(transaction_id)

    def add_edge(self, before: TransactionId, after: TransactionId) -> None:
        """Add the edge ``before -> after`` (self-loops are ignored)."""
        if before == after:
            return
        self._nodes.add(before)
        self._nodes.add(after)
        self._edges.setdefault(before, set()).add(after)

    def add_history(self, commits: Sequence[CommittedTransaction]) -> None:
        """Order every conflicting pair of ``commits`` (one site, commit order).

        One pass: each transaction gets an edge from its predecessor in its
        conflict class, from the last writer of every key it reads or
        writes, and from every reader of a key it writes since that writer.
        An earlier conflicting transaction reaches it through the class
        chain or the key's writer chain, so at most one edge per commit, one
        per written key and two per read key stand in for the quadratic set
        of pairs.
        """
        last_of_class: Dict[ConflictClassId, TransactionId] = {}
        last_writer: Dict[ObjectKey, TransactionId] = {}
        readers_since_write: Dict[ObjectKey, List[TransactionId]] = {}
        for commit in commits:
            current = commit.transaction_id
            self.add_node(current)
            previous = last_of_class.get(commit.conflict_class)
            if previous is not None:
                self.add_edge(previous, current)
            last_of_class[commit.conflict_class] = current
            for key in commit.read_keys:
                if key in last_writer:
                    self.add_edge(last_writer[key], current)
                readers_since_write.setdefault(key, []).append(current)
            for key in commit.write_keys:
                if key in last_writer:
                    self.add_edge(last_writer[key], current)
                # A transaction that also read ``key`` pops itself here;
                # ``add_edge`` drops the self-loop.
                for reader in readers_since_write.pop(key, ()):
                    self.add_edge(reader, current)
                last_writer[key] = current

    # ---------------------------------------------------------------- queries
    def edge_count(self) -> int:
        """Return the number of distinct edges."""
        return sum(len(afters) for afters in self._edges.values())

    def find_cycle(self) -> Optional[List[TransactionId]]:
        """Return one cycle as a list of nodes, or ``None`` when acyclic."""
        WHITE, GREY, BLACK = 0, 1, 2
        colour: Dict[TransactionId, int] = {node: WHITE for node in self._nodes}
        parent: Dict[TransactionId, Optional[TransactionId]] = {}

        def visit(start: TransactionId) -> Optional[List[TransactionId]]:
            stack: List[Tuple[TransactionId, Iterable[TransactionId]]] = [
                (start, iter(sorted(self._edges.get(start, set()))))
            ]
            colour[start] = GREY
            parent[start] = None
            while stack:
                node, children = stack[-1]
                advanced = False
                for child in children:
                    if colour.get(child, WHITE) == GREY:
                        cycle = [child, node]
                        current = parent.get(node)
                        while current is not None and current != child:
                            cycle.append(current)
                            current = parent.get(current)
                        cycle.append(child)
                        cycle.reverse()
                        return cycle
                    if colour.get(child, WHITE) == WHITE:
                        colour[child] = GREY
                        parent[child] = node
                        stack.append((child, iter(sorted(self._edges.get(child, set())))))
                        advanced = True
                        break
                if not advanced:
                    colour[node] = BLACK
                    stack.pop()
            return None

        for node in sorted(self._nodes):
            if colour[node] == WHITE:
                cycle = visit(node)
                if cycle:
                    return cycle
        return None
