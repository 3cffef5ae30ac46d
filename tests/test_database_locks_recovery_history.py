"""Tests for redo recovery and history/conflict graphs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database import (
    CommittedTransaction,
    ConflictGraph,
    MultiVersionStore,
    RedoLog,
    RedoRecord,
    SiteHistory,
    transactions_conflict,
)
from repro.errors import DatabaseError, VerificationError
from repro.verification import check_one_copy_serializability

from oracles import all_pairs_conflict_graph, one_copy_serializable, transitive_closure


class TestRedo:
    def test_redo_log_replay_catches_up_a_fresh_store(self):
        redo = RedoLog()
        redo.append_commit("T0", {"x": 1}, index=0)
        redo.append_commit("T1", {"x": 5, "y": 7}, index=1)
        redo.append_commit("T2", {"y": 9}, index=2)
        fresh = MultiVersionStore()
        fresh.load_many({"x": 0, "y": 0})
        replayed = redo.replay_into(fresh, after_index=0)
        assert replayed == 3  # T1 (2 writes) + T2 (1 write)
        assert fresh.read_latest("x") == 5
        assert fresh.read_latest("y") == 9
        assert len(redo) == 4

    def test_records_after_filters_by_index(self):
        redo = RedoLog()
        redo.append_commit("T0", {"x": 1}, index=0)
        redo.append_commit("T5", {"x": 2}, index=5)
        assert [record.index for record in redo.records_after(0)] == [5]

    def test_len_counts_writes_not_commits(self):
        redo = RedoLog()
        redo.append_commit("T0", {"x": 1, "y": 2, "z": 3}, index=0)
        redo.append_commit("T1", {}, index=1)
        assert len(redo) == 3
        # A commit that wrote nothing is still recorded as covered.
        assert redo.covers_index(1)

    def test_each_commit_replays_its_writes_sorted_by_key(self):
        redo = RedoLog()
        redo.append_commit("T0", {"c": 3, "a": 1, "b": 2}, index=0)
        records = redo.records_after(-1)
        assert [record.key for record in records] == ["a", "b", "c"]
        assert records[0] == RedoRecord("T0", "a", 1, 0)

    def test_indices_returns_a_copy(self):
        redo = RedoLog()
        redo.append_commit("T0", {"x": 1}, index=4)
        redo.indices().add(9)
        assert redo.indices() == {4}
        assert not redo.covers_index(9)

    def test_empty_log_replays_nothing(self):
        store = MultiVersionStore()
        store.load("x", 0)
        assert RedoLog().replay_into(store, after_index=-1) == 0
        assert store.version_count("x") == 1
        assert len(RedoLog()) == 0


#: Random commits for the redo-log property: unique definitive indices in any
#: order (classes commit out of definitive order), some with no writes.
redo_commits = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=15),
        st.dictionaries(st.sampled_from("abcde"), st.integers(), max_size=4),
    ),
    max_size=10,
    unique_by=lambda commit: commit[0],
)


def per_write_reference(commits):
    """The redo log as one ``RedoRecord`` per write, in append order."""
    return [
        RedoRecord(
            transaction_id=f"T{index}",
            key=key,
            value=value,
            index=index,
            committed_at=index / 10,
        )
        for index, writes in commits
        for key, value in sorted(writes.items())
    ]


def replay_outcome(replay):
    """Replay into a fresh store; return what a caller could observe."""
    store = MultiVersionStore()
    store.load_many({key: 0 for key in "abcde"})
    try:
        replayed = replay(store)
    except DatabaseError as error:  # out-of-order installs of one key
        return ("error", str(error))
    versions = {key: store.latest_version(key) for key in store.keys()}
    counts = {key: store.version_count(key) for key in store.keys()}
    return replayed, versions, counts


class TestRedoLogLayout:
    @given(
        commits=redo_commits,
        after=st.integers(min_value=-2, max_value=16),
        up_to=st.one_of(st.none(), st.integers(min_value=-2, max_value=16)),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_per_commit_log_matches_a_per_write_reference(self, commits, after, up_to):
        redo = RedoLog()
        for index, writes in commits:
            redo.append_commit(f"T{index}", writes, index, committed_at=index / 10)
        reference = per_write_reference(commits)
        expected = [
            record
            for record in reference
            if record.index > after and (up_to is None or record.index <= up_to)
        ]
        assert len(redo) == len(reference)
        assert redo.records_after(after, up_to=up_to) == expected
        assert all(redo.covers_index(index) for index, _ in commits)

        def reference_replay(store):
            for record in expected:
                store.install(
                    record.key,
                    record.value,
                    created_index=record.index,
                    created_by=record.transaction_id,
                    created_at=record.committed_at,
                )
            return len(expected)

        assert replay_outcome(
            lambda store: redo.replay_into(store, after_index=after, up_to=up_to)
        ) == replay_outcome(reference_replay)


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
        assert history.commit_order_of_class("Cx") == ["T1", "T3"]
        assert history.commit_order_of_class("Cz") == []
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
        assert graph.is_acyclic()

    def test_cycle_detection(self):
        graph = ConflictGraph()
        graph.add_edge("T1", "T2")
        graph.add_edge("T2", "T3")
        graph.add_edge("T3", "T1")
        cycle = graph.find_cycle()
        assert cycle is not None
        assert not graph.is_acyclic()

    def test_topological_order_respects_edges(self):
        graph = ConflictGraph()
        graph.add_edge("T1", "T2")
        graph.add_edge("T2", "T3")
        graph.add_node("T0")
        order = graph.topological_order()
        assert order.index("T1") < order.index("T2") < order.index("T3")
        assert "T0" in order

    def test_topological_order_rejects_cycles(self):
        graph = ConflictGraph()
        graph.add_edge("T1", "T2")
        graph.add_edge("T2", "T1")
        with pytest.raises(VerificationError):
            graph.topological_order()

    def test_self_loops_ignored(self):
        graph = ConflictGraph()
        graph.add_edge("T1", "T1")
        assert graph.is_acyclic()

    def test_add_history_builds_edges_for_conflicting_pairs_only(self):
        commits = [
            committed("T1", "Cx", 0),
            committed("T2", "Cy", 1),
            committed("T3", "Cx", 2),
        ]
        graph = ConflictGraph()
        graph.add_history(commits)
        assert ("T1", "T3") in graph.edges()
        assert ("T1", "T2") not in graph.edges()
        assert graph.successors("T1") == {"T3"}

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
        assert graph.is_acyclic()


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

        assert reduced.nodes() == oracle.nodes()
        assert set(reduced.edges()) <= set(oracle.edges())
        assert transitive_closure(reduced) == transitive_closure(oracle)
        assert reduced.is_acyclic() == oracle.is_acyclic()

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
        assert graph.nodes() == {commit.transaction_id for commit in commits}
        # At most one class predecessor and one last writer per written key.
        assert graph.edge_count() <= 3 * count
        assert graph.topological_order() == [commit.transaction_id for commit in commits]

    def test_keyless_history_is_one_chain_per_class(self):
        count, classes = 200, 5
        graph = ConflictGraph()
        graph.add_history(
            [committed(f"T{index}", f"C{index % classes}", index) for index in range(count)]
        )
        assert graph.edge_count() == count - classes
        assert graph.successors("T0") == {f"T{classes}"}

    def test_read_and_write_of_one_key_orders_before_the_next_writer(self):
        graph = ConflictGraph()
        graph.add_history(
            [
                committed("T1", "Cx", 0, writes=["k"], reads=["k"]),
                committed("T2", "Cy", 1, writes=["k"]),
                committed("T3", "Cz", 2, reads=["k"]),
            ]
        )
        assert graph.edges() == [("T1", "T2"), ("T2", "T3")]
