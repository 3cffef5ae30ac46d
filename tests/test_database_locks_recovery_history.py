"""Tests for redo recovery, site histories and the conflict reference."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database import (
    CommittedTransaction,
    MultiVersionStore,
    ObjectVersion,
    RedoLog,
    SiteHistory,
)
from repro.errors import DatabaseError, VerificationError

from oracles import (
    all_pairs_conflict_graph,
    edges,
    is_acyclic,
    topological_order,
    transactions_conflict,
)


def durable_site(commits):
    """A site's redo view after ``commits``: ``(transaction, writes, index,
    committed_at)`` tuples, installed in the order given."""
    store = MultiVersionStore()
    history = SiteHistory("N1", "T{}".format)
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
            ),
            (),
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
                (0, {"x": 1}, 0, 0.1),
                (1, {"x": 5, "y": 7}, 1, 0.2),
                (2, {"y": 9}, 2, 0.3),
            ]
        )
        assert flatten(redo.records_after(0, up_to=2)) == [
            (1, "x", 5, 1, 0.2),
            (1, "y", 7, 1, 0.2),
            (2, "y", 9, 2, 0.3),
        ]
        assert len(redo) == 4

    def test_records_after_filters_by_index(self):
        redo, _, _ = durable_site([(0, {"x": 1}, 0, 0.0), (5, {"x": 2}, 5, 0.0)])
        records = redo.records_after(0, up_to=5)
        assert [committed.global_index for committed, _ in records] == [5]

    def test_len_counts_writes_not_commits(self):
        redo, _, history = durable_site(
            [(0, {"x": 1, "y": 2, "z": 3}, 0, 0.0), (1, {}, 1, 0.0)]
        )
        assert len(redo) == 3
        # A commit that wrote nothing is still covered by the history.
        assert history.global_indices() == {0, 1}

    def test_each_commit_replays_its_writes_sorted_by_key(self):
        redo, _, _ = durable_site([(0, {"c": 3, "a": 1, "b": 2}, 0, 0.5)])
        [(committed, versions)] = redo.records_after(-1, up_to=0)
        assert committed.transaction_id == 0
        assert [version.key for version in versions] == ["a", "b", "c"]
        assert versions[0] == ObjectVersion("a", 1, 0, 0, 0.5)

    def test_a_pruned_version_cannot_be_donated(self):
        redo, store, _ = durable_site(
            [(0, {"x": 1}, 0, 0.0), (1, {"x": 2}, 1, 0.0)]
        )
        assert store.prune(1) == 1
        assert flatten(redo.records_after(0, up_to=1)) == [(1, "x", 2, 1, 0.0)]
        with pytest.raises(DatabaseError, match="created by T0 at"):
            redo.records_after(-1, up_to=1)

    def test_empty_suffix_replays_nothing(self):
        empty, _, _ = durable_site([])
        assert empty.records_after(-1, up_to=10) == []
        assert len(empty) == 0
        redo, _, _ = durable_site([(0, {"x": 1}, 0, 0.0)])
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
        commits.append((index, writes, index, index / 10))
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


class TestSiteHistory:
    def test_record_and_query_history(self):
        history = SiteHistory("N1", "T{}".format)
        history.record_commit(committed(1, "Cx", 0, writes=["x"], reads=["x"]), [-1])
        history.record_commit(committed(2, "Cy", 1), ())
        history.record_commit(committed(3, "Cx", 2, reads=["x", "y"]), [0, -1])
        assert history.transaction_ids() == ["T1", "T2", "T3"]
        assert 2 in history
        assert history.get(2).global_index == 1
        assert len(history) == 3
        # One column, every commit's read keys in turn.
        assert list(history.read_versions) == [-1, 0, -1]

    def test_double_commit_rejected(self):
        history = SiteHistory("N1", "T{}".format)
        history.record_commit(committed(1, "Cx", 0), ())
        with pytest.raises(VerificationError, match="T1 committed twice at site N1"):
            history.record_commit(committed(1, "Cx", 1), ())
        assert history.transaction_ids() == ["T1"]


class TestConflictReference:
    """The all-pairs reference the 1SR replay is compared against."""

    def test_same_class_transactions_conflict(self):
        assert transactions_conflict(committed(1, "Cx", 0), committed(2, "Cx", 1))

    def test_different_class_no_key_overlap_do_not_conflict(self):
        assert not transactions_conflict(
            committed(1, "Cx", 0, writes=["a"]), committed(2, "Cy", 1, writes=["b"])
        )

    def test_write_read_overlap_conflicts(self):
        assert transactions_conflict(
            committed(1, "Cx", 0, writes=["k"]), committed(2, "Cy", 1, reads=["k"])
        )

    def test_read_read_overlap_does_not_conflict(self):
        assert not transactions_conflict(
            committed(1, "Cx", 0, reads=["k"]), committed(2, "Cy", 1, reads=["k"])
        )

    def test_all_pairs_graph_has_an_edge_per_ordered_conflicting_pair(self):
        commits = [
            committed(1, "Cx", 0),
            committed(2, "Cy", 1),
            committed(3, "Cx", 2),
            committed(4, "Cz", 3, reads=["k"]),
            committed(5, "Cy", 4, writes=["k"]),
        ]
        graph = all_pairs_conflict_graph(commits)
        assert edges(graph) == [(1, 3), (2, 5), (4, 5)]
        assert topological_order(graph) == [1, 2, 3, 4, 5]

    def test_sites_ordering_a_conflicting_pair_differently_form_a_cycle(self):
        first, second = committed(1, "Cx", 0), committed(2, "Cx", 1)
        graph = all_pairs_conflict_graph([first, second], [second, first])
        assert not is_acyclic(graph)
        with pytest.raises(VerificationError, match="cyclic"):
            topological_order(graph)

    def test_topological_order_keeps_isolated_nodes(self):
        graph = {0: set(), 1: {2}, 2: {3}, 3: set()}
        assert topological_order(graph) == [0, 1, 2, 3]
