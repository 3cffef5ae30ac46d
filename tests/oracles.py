"""Reference implementations the tests compare the fast checkers against.

These are the quadratic, every-conflicting-pair constructions the paper's
definitions spell out (Section 2.2): which committed transactions conflict,
the conflict graph with one edge per ordered conflicting pair, and the 1SR
verdict read off that graph.  ``src/`` checks 1-copy-serializability by one
linear replay of the definitive order against the version each read saw
(:func:`repro.verification.check_one_copy_serializability`); these forms
live here so a property test can state "whatever the definition rejects, the
replay rejects" against something a reader can check by eye.  A graph is a
plain ``{node: set of successors}`` dict.

The readers of a site history's and a version chain's columns as records
and of a partition controller's severed links live here too: only tests ask
for them, so ``src/`` keeps the structures and these functions read them.
"""

import heapq

from repro.database.history import CommittedTransaction
from repro.errors import VerificationError


def transactions_conflict(first, second):
    """Whether two committed transactions conflict.

    With the paper's coarse concurrency-control model two update
    transactions conflict exactly when they belong to the same conflict
    class.  Overlapping recorded accesses with at least one write also
    count as conflicts.
    """
    if first.conflict_class == second.conflict_class:
        return True
    first_writes = set(first.write_keys)
    second_writes = set(second.write_keys)
    return bool(
        first_writes & second_writes
        or first_writes & set(second.read_keys)
        or second_writes & set(first.read_keys)
    )


def edges(graph):
    """Every edge as a ``(before, after)`` pair, sorted."""
    return [
        (before, after) for before, afters in sorted(graph.items()) for after in sorted(afters)
    ]


def topological_order(graph):
    """The smallest-id-first topological order (raises on a cycle)."""
    in_degree = {node: 0 for node in graph}
    for afters in graph.values():
        for after in afters:
            in_degree[after] += 1
    ready = [node for node, degree in in_degree.items() if degree == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for successor in graph[node]:
            in_degree[successor] -= 1
            if in_degree[successor] == 0:
                heapq.heappush(ready, successor)
    if len(order) != len(graph):
        raise VerificationError(
            f"conflict graph is cyclic: {sorted(set(graph) - set(order))} lie on or behind a cycle"
        )
    return order


def committed_transactions(history):
    """A site history's commits as records, in local commit order."""
    return [
        CommittedTransaction(
            history.ids[row],
            history.classes[row],
            history.indices[row],
            history.committed_at[row],
            *map(tuple, history.key_row(row)),
            history.message_ids[row],
        )
        for row in range(len(history))
    ]


def chain_versions(chain):
    """Every version of a :class:`~repro.database.VersionChain` as a record,
    oldest first."""
    return [chain._record(position) for position in range(len(chain))]


def severed_links(controller):
    """The directed links a :class:`~repro.network.PartitionController` has severed, sorted."""
    return sorted(controller._severed)


def all_pairs_conflict_graph(*site_commits):
    """The conflict graph with one edge per ordered conflicting pair.

    Each argument is one site's commits in local commit order; the result is
    the union graph over all of them.
    """
    graph = {}
    for commits in site_commits:
        for position, earlier in enumerate(commits):
            graph.setdefault(earlier.transaction_id, set())
            for later in commits[position + 1:]:
                if transactions_conflict(earlier, later):
                    graph[earlier.transaction_id].add(later.transaction_id)
                    graph.setdefault(later.transaction_id, set())
    return graph


def histories_conflict_equivalent(first, second):
    """Whether two histories over the same transactions order every
    conflicting pair identically."""
    second_positions = {
        commit.transaction_id: position for position, commit in enumerate(second)
    }
    if {commit.transaction_id for commit in first} != set(second_positions):
        return False
    for position, earlier in enumerate(first):
        for later in first[position + 1:]:
            if not transactions_conflict(earlier, later):
                continue
            if second_positions[earlier.transaction_id] > second_positions[later.transaction_id]:
                return False
    return True


def is_acyclic(graph):
    """Whether no node reaches itself."""
    try:
        topological_order(graph)
    except VerificationError:
        return False
    return True


def one_copy_serializable(*site_commits):
    """The 1SR verdict straight from the definitions: every site committed
    the same transactions and the union of the all-pairs graphs is acyclic.
    (Sites that order a same-class pair differently form a two-cycle there,
    so the per-class order check is implied.)"""
    id_sets = [{commit.transaction_id for commit in commits} for commits in site_commits]
    if any(ids != id_sets[0] for ids in id_sets):
        return False
    return is_acyclic(all_pairs_conflict_graph(*site_commits))
