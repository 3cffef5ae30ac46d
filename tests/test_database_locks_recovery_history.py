"""Tests for redo recovery and history/conflict graphs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database import (
    CommittedTransaction,
    ConflictGraph,
    MultiVersionStore,
    ObjectVersion,
    RedoLog,
    SiteHistory,
    transactions_conflict,
)
from repro.errors import DatabaseError, VerificationError
from repro.verification import check_one_copy_serializability

from oracles import (
    all_pairs_conflict_graph,
    edges,
    is_acyclic,
    nodes,
    one_copy_serializable,
    successors,
    topological_order,
    transitive_closure,
)


def durable_site(commits):
    """A site's redo view after ``commits``: ``(transaction, writes, index,
    committed_at)`` tuples, installed in the order given."""
    store = MultiVersionStore()
    history = SiteHistory("N1")
    for transaction_id, writes, index, committed_at in commits:
        for key in sorted(writes):
            store.install(
                key,
                writes[key],
                created_index=index,
                created_by=transaction_id,
                created_at=committed_at,
            )
        history.record_commit(
            CommittedTransaction(
                transaction_id=transaction_id,
                conflict_class="C0",
                global_index=index,
                committed_at=committed_at,
                write_keys=tuple(sorted(writes)),
            )
        )
    return RedoLog(store, history), store, history


def flatten(records):
    """``records_after`` output as ``(transaction, key, value, index, at)`` rows."""
    rows = []
    for committed, versions in records:
        for version in versions:
            assert version.created_by == committed.transaction_id
            assert version.created_index == committed.global_index
            rows.append(
                (
                    committed.transaction_id,
                    version.key,
                    version.value,
                    version.created_index,
                    version.created_at,
                )
            )
    return rows


class TestRedo:
    def test_records_after_reads_the_versions_each_commit_created(self):
        redo, _, _ = durable_site(
            [
                ("T0", {"x": 1}, 0, 0.1),
                ("T1", {"x": 5, "y": 7}, 1, 0.2),
                ("T2", {"y": 9}, 2, 0.3),
            ]
        )
        assert flatten(redo.records_after(0, up_to=2)) == [
            ("T1", "x", 5, 1, 0.2),
            ("T1", "y", 7, 1, 0.2),
            ("T2", "y", 9, 2, 0.3),
        ]
        assert len(redo) == 4

    def test_records_after_filters_by_index(self):
        redo, _, _ = durable_site([("T0", {"x": 1}, 0, 0.0), ("T5", {"x": 2}, 5, 0.0)])
        records = redo.records_after(0, up_to=5)
        assert [committed.global_index for committed, _ in records] == [5]

    def test_len_counts_writes_not_commits(self):
        redo, _, history = durable_site(
            [("T0", {"x": 1, "y": 2, "z": 3}, 0, 0.0), ("T1", {}, 1, 0.0)]
        )
        assert len(redo) == 3
        # A commit that wrote nothing is still covered by the history.
        assert history.global_indices() == {0, 1}

    def test_each_commit_replays_its_writes_sorted_by_key(self):
        redo, _, _ = durable_site([("T0", {"c": 3, "a": 1, "b": 2}, 0, 0.5)])
        [(committed, versions)] = redo.records_after(-1, up_to=0)
        assert committed.transaction_id == "T0"
        assert [version.key for version in versions] == ["a", "b", "c"]
        assert versions[0] == ObjectVersion("a", 1, 0, "T0", 0.5)

    def test_a_pruned_version_cannot_be_donated(self):
        redo, store, _ = durable_site(
            [("T0", {"x": 1}, 0, 0.0), ("T1", {"x": 2}, 1, 0.0)]
        )
        assert store.prune(1) == 1
        assert flatten(redo.records_after(0, up_to=1)) == [("T1", "x", 2, 1, 0.0)]
        with pytest.raises(DatabaseError, match="T0"):
            redo.records_after(-1, up_to=1)

    def test_empty_suffix_replays_nothing(self):
        empty, _, _ = durable_site([])
        assert empty.records_after(-1, up_to=10) == []
        assert len(empty) == 0
        redo, _, _ = durable_site([("T0", {"x": 1}, 0, 0.0)])
        assert redo.records_after(0, up_to=10) == []
        assert redo.records_after(-1, up_to=-1) == []


@st.composite
def site_commits(draw):
    """Commits a site could hold: unique definitive indices, each class (one
    key pair per class) committing in index order, the classes interleaved in
    any order, some commits writing nothing."""
    drawn = draw(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=15), st.sampled_from("ab")),
            max_size=10,
            unique_by=lambda commit: commit[0],
        )
    )
    keys_of = {"a": ("a1", "a2"), "b": ("b1", "b2")}
    by_class = {
        conflict_class: sorted(index for index, owner in drawn if owner == conflict_class)
        for conflict_class in keys_of
    }
    commits = []
    for _, conflict_class in drawn:
        index = by_class[conflict_class].pop(0)
        keys = draw(st.sets(st.sampled_from(keys_of[conflict_class])))
        writes = {key: draw(st.integers()) for key in sorted(keys)}
        commits.append((f"T{index}", writes, index, index / 10))
    return commits


class TestRedoLogLayout:
    @given(
        commits=site_commits(),
        after=st.integers(min_value=-2, max_value=16),
        up_to=st.integers(min_value=-2, max_value=16),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_store_backed_log_matches_a_per_write_reference(self, commits, after, up_to):
        redo, _, _ = durable_site(commits)
        reference = sorted(
            (transaction_id, key, value, index, committed_at)
            for transaction_id, writes, index, committed_at in commits
            for key, value in writes.items()
        )
        expected = sorted(
            (row for row in reference if after < row[3] <= up_to),
            key=lambda row: (row[3], row[1]),
        )
        records = redo.records_after(after, up_to=up_to)
        assert len(redo) == len(reference)
        assert flatten(records) == expected
        # Commits that wrote nothing are part of the suffix too.
        assert [committed.global_index for committed, _ in records] == sorted(
            index for _, _, index, _ in commits if after < index <= up_to
        )


def committed(txn_id, conflict_class, index, writes=(), reads=()):
    return CommittedTransaction(
        transaction_id=txn_id,
        conflict_class=conflict_class,
        global_index=index,
        committed_at=float(index),
        write_keys=tuple(writes),
        read_keys=tuple(reads),
    )


class TestHistoryAndConflictGraph:
    def test_record_and_query_history(self):
        history = SiteHistory("N1")
        history.record_commit(committed("T1", "Cx", 0))
        history.record_commit(committed("T2", "Cy", 1))
        history.record_commit(committed("T3", "Cx", 2))
        assert history.transaction_ids() == ["T1", "T2", "T3"]
        assert history.commit_orders_by_class() == {"Cx": ["T1", "T3"], "Cy": ["T2"]}
        assert history.classes() == ["Cx", "Cy"]
        assert "T2" in history
        assert history.get("T2").global_index == 1
        assert len(history) == 3

    def test_double_commit_rejected(self):
        history = SiteHistory("N1")
        history.record_commit(committed("T1", "Cx", 0))
        with pytest.raises(VerificationError):
            history.record_commit(committed("T1", "Cx", 1))

    def test_same_class_transactions_conflict(self):
        assert transactions_conflict(committed("T1", "Cx", 0), committed("T2", "Cx", 1))

    def test_different_class_no_key_overlap_do_not_conflict(self):
        assert not transactions_conflict(
            committed("T1", "Cx", 0, writes=["a"]), committed("T2", "Cy", 1, writes=["b"])
        )

    def test_write_read_overlap_conflicts(self):
        assert transactions_conflict(
            committed("T1", "Cx", 0, writes=["k"]), committed("T2", "Cy", 1, reads=["k"])
        )

    def test_acyclic_graph_is_serializable(self):
        commits = [committed("T1", "Cx", 0), committed("T2", "Cx", 1), committed("T3", "Cy", 2)]
        graph = ConflictGraph()
        graph.add_history(commits)
        assert is_acyclic(graph)

    def test_cycle_detection(self):
        graph = ConflictGraph()
        graph.add_edge("T1", "T2")
        graph.add_edge("T2", "T3")
        graph.add_edge("T3", "T1")
        cycle = graph.find_cycle()
        assert cycle is not None
        assert not is_acyclic(graph)

    def test_topological_order_respects_edges(self):
        graph = ConflictGraph()
        graph.add_edge("T1", "T2")
        graph.add_edge("T2", "T3")
        graph.add_node("T0")
        order = topological_order(graph)
        assert order.index("T1") < order.index("T2") < order.index("T3")
        assert "T0" in order

    def test_topological_order_rejects_cycles(self):
        graph = ConflictGraph()
        graph.add_edge("T1", "T2")
        graph.add_edge("T2", "T1")
        with pytest.raises(VerificationError):
            topological_order(graph)

    def test_self_loops_ignored(self):
        graph = ConflictGraph()
        graph.add_edge("T1", "T1")
        assert is_acyclic(graph)

    def test_add_history_builds_edges_for_conflicting_pairs_only(self):
        commits = [
            committed("T1", "Cx", 0),
            committed("T2", "Cy", 1),
            committed("T3", "Cx", 2),
        ]
        graph = ConflictGraph()
        graph.add_history(commits)
        assert ("T1", "T3") in edges(graph)
        assert ("T1", "T2") not in edges(graph)
        assert successors(graph, "T1") == {"T3"}

    @given(
        class_of=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=12)
    )
    @settings(max_examples=50, deadline=None)
    def test_any_single_site_sequential_history_is_serializable(self, class_of):
        """Property: a totally ordered (sequential) history is always serializable."""
        commits = [
            committed(f"T{index}", f"C{class_index}", index)
            for index, class_index in enumerate(class_of)
        ]
        graph = ConflictGraph()
        graph.add_history(commits)
        assert is_acyclic(graph)


KEYS = ("a", "b", "c", "d")
key_sets = st.lists(st.sampled_from(KEYS), max_size=2, unique=True)


@st.composite
def multi_site_histories(draw):
    """One to three sites' commit orders over the same few transactions.

    Every site starts from the same order; a few random swaps and the odd
    dropped commit per site make a good share of the draws non-serializable.
    """
    count = draw(st.integers(min_value=1, max_value=8))
    base = [
        committed(
            f"T{index}",
            f"C{draw(st.integers(min_value=0, max_value=3))}",
            index,
            writes=draw(key_sets),
            reads=draw(key_sets),
        )
        for index in range(count)
    ]
    position = st.integers(min_value=0, max_value=count - 1)
    sites = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        commits = list(base)
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            first, second = draw(position), draw(position)
            commits[first], commits[second] = commits[second], commits[first]
        if draw(st.integers(min_value=0, max_value=5)) == 0:
            del commits[draw(position)]
        sites.append(commits)
    return sites


class TestReducedConflictGraph:
    """``add_history`` keeps a reduction of the all-pairs graph, not the graph."""

    @given(sites=multi_site_histories())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_same_reachability_and_verdict_as_the_all_pairs_oracle(self, sites):
        reduced = ConflictGraph()
        for commits in sites:
            reduced.add_history(commits)
        oracle = all_pairs_conflict_graph(*sites)

        assert nodes(reduced) == nodes(oracle)
        assert set(edges(reduced)) <= set(edges(oracle))
        assert transitive_closure(reduced) == transitive_closure(oracle)
        assert is_acyclic(reduced) == is_acyclic(oracle)

        histories = {}
        for number, commits in enumerate(sites):
            histories[f"N{number}"] = history = SiteHistory(f"N{number}")
            for commit in commits:
                history.record_commit(commit)
        report = check_one_copy_serializability(histories)
        assert report.ok == one_copy_serializable(*sites)
        assert report.conflict_edges == reduced.edge_count()

    def test_edges_grow_with_commits_and_key_accesses_not_with_pairs(self):
        count = 4000
        commits = [
            committed(
                f"T{index:04d}",
                f"C{index % 8}",
                index,
                writes=[f"k{index * 7 % 50}", f"k{(index * 13 + 1) % 50}"],
            )
            for index in range(count)
        ]
        graph = ConflictGraph()
        graph.add_history(commits)
        assert nodes(graph) == {commit.transaction_id for commit in commits}
        # At most one class predecessor and one last writer per written key.
        assert graph.edge_count() <= 3 * count
        assert topological_order(graph) == [commit.transaction_id for commit in commits]

    def test_keyless_history_is_one_chain_per_class(self):
        count, classes = 200, 5
        graph = ConflictGraph()
        graph.add_history(
            [committed(f"T{index}", f"C{index % classes}", index) for index in range(count)]
        )
        assert graph.edge_count() == count - classes
        assert successors(graph, "T0") == {f"T{classes}"}

    def test_read_and_write_of_one_key_orders_before_the_next_writer(self):
        graph = ConflictGraph()
        graph.add_history(
            [
                committed("T1", "Cx", 0, writes=["k"], reads=["k"]),
                committed("T2", "Cy", 1, writes=["k"]),
                committed("T3", "Cz", 2, reads=["k"]),
            ]
        )
        assert edges(graph) == [("T1", "T2"), ("T2", "T3")]
