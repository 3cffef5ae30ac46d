"""Reference implementations the tests compare the fast checkers against.

These are the quadratic, every-conflicting-pair constructions the paper's
definitions spell out (Section 2.2).  ``src/`` carries only the linear-time
reduction (:meth:`repro.database.ConflictGraph.add_history`); the all-pairs
forms live here so a property test can state "same nodes, same reachability,
same verdict" against something a reader can check by eye.

The readers of a conflict graph's nodes and edges, of a version chain's
columns as records, and of a partition controller's severed links live
here too: only tests ask for them, so ``src/`` keeps the structures and
these functions read them.
"""

import heapq

from repro.database import ConflictGraph, transactions_conflict
from repro.errors import VerificationError


def nodes(graph):
    """Every node of a :class:`~repro.database.ConflictGraph`."""
    return set(graph._nodes)


def edges(graph):
    """Every edge as a ``(before, after)`` pair, sorted."""
    return [
        (before, after)
        for before, afters in sorted(graph._edges.items())
        for after in sorted(afters)
    ]


def successors(graph, transaction_id):
    """The direct successors of ``transaction_id``."""
    return set(graph._edges.get(transaction_id, ()))


def is_acyclic(graph):
    return graph.find_cycle() is None


def topological_order(graph):
    """The smallest-id-first topological order (raises on a cycle)."""
    cycle = graph.find_cycle()
    if cycle:
        raise VerificationError(f"conflict graph is cyclic: {cycle}")
    in_degree = {node: 0 for node in graph._nodes}
    for afters in graph._edges.values():
        for after in afters:
            in_degree[after] += 1
    ready = [node for node, degree in in_degree.items() if degree == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for successor in graph._edges.get(node, ()):
            in_degree[successor] -= 1
            if in_degree[successor] == 0:
                heapq.heappush(ready, successor)
    return order


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
    graph = ConflictGraph()
    for commits in site_commits:
        for position, earlier in enumerate(commits):
            graph.add_node(earlier.transaction_id)
            for later in commits[position + 1:]:
                if transactions_conflict(earlier, later):
                    graph.add_edge(earlier.transaction_id, later.transaction_id)
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


def transitive_closure(graph):
    """``{node: set of nodes reachable from it}`` by depth-first search."""
    closure = {}
    for start in nodes(graph):
        reached = set()
        frontier = [start]
        while frontier:
            for successor in successors(graph, frontier.pop()):
                if successor not in reached:
                    reached.add(successor)
                    frontier.append(successor)
        closure[start] = reached
    return closure


def one_copy_serializable(*site_commits):
    """The 1SR verdict straight from the definitions: every site committed
    the same transactions and no transaction precedes itself in the union of
    the all-pairs graphs.  (Sites that order a same-class pair differently
    form a two-cycle there, so the per-class order check is implied.)"""
    id_sets = [{commit.transaction_id for commit in commits} for commits in site_commits]
    if any(ids != id_sets[0] for ids in id_sets):
        return False
    closure = transitive_closure(all_pairs_conflict_graph(*site_commits))
    return not any(node in reached for node, reached in closure.items())
