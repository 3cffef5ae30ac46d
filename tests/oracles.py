"""Reference implementations the tests compare the fast checkers against.

These are the quadratic, every-conflicting-pair constructions the paper's
definitions spell out (Section 2.2).  ``src/`` carries only the linear-time
reduction (:meth:`repro.database.ConflictGraph.add_history`); the all-pairs
forms live here so a property test can state "same nodes, same reachability,
same verdict" against something a reader can check by eye.
"""

from repro.database import ConflictGraph, transactions_conflict


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
    for start in graph.nodes():
        reached = set()
        frontier = [start]
        while frontier:
            for successor in graph.successors(frontier.pop()):
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
