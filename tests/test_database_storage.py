"""Tests for versioned objects, the multi-version store and snapshots."""

import copy

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.database import MultiVersionStore, ObjectVersion, SnapshotManager, VersionChain
from repro.errors import DatabaseError, SnapshotError, UnknownObjectError

from oracles import chain_versions

INF = float("inf")


class TestVersionChain:
    def test_latest_returns_most_recent(self):
        chain = VersionChain(key="x")
        chain.append(ObjectVersion("x", 1, created_index=0, created_by="T1"))
        chain.append(ObjectVersion("x", 2, created_index=1, created_by="T2"))
        assert chain.visible_at(INF).value == 2

    def test_visible_at_picks_greatest_index_not_exceeding_bound(self):
        chain = VersionChain(key="x")
        for index in range(5):
            chain.append(ObjectVersion("x", index * 10, created_index=index, created_by=f"T{index}"))
        assert chain.visible_at(2.5).value == 20
        assert chain.visible_at(0).value == 0
        assert chain.visible_at(100).value == 40

    def test_visible_at_before_first_version_is_none(self):
        chain = VersionChain(key="x")
        chain.append(ObjectVersion("x", 1, created_index=5, created_by="T5"))
        assert chain.visible_at(4.5) is None

    def test_mismatched_key_rejected(self):
        chain = VersionChain(key="x")
        with pytest.raises(DatabaseError):
            chain.append(ObjectVersion("y", 1, created_index=0, created_by="T1"))

    def test_decreasing_index_rejected(self):
        chain = VersionChain(key="x")
        chain.append(ObjectVersion("x", 1, created_index=5, created_by="T5"))
        with pytest.raises(DatabaseError):
            chain.append(ObjectVersion("x", 2, created_index=4, created_by="T4"))

    def test_prune_keeps_at_least_one_version(self):
        chain = VersionChain(key="x")
        for index in range(5):
            chain.append(ObjectVersion("x", index, created_index=index, created_by=f"T{index}"))
        removed = chain.prune_before(100, keep_at_least=1)
        assert removed == 4
        assert len(chain) == 1
        assert chain.visible_at(INF).value == 4

    def test_constructor_rejects_versions_out_of_index_order(self):
        # Trusted, these answered visible_at(4) with "a" and latest() with "b".
        versions = [
            ObjectVersion("x", "a", created_index=1, created_by="T1"),
            ObjectVersion("x", "c", created_index=5, created_by="T5"),
            ObjectVersion("x", "b", created_index=3, created_by="T3"),
        ]
        with pytest.raises(DatabaseError):
            VersionChain("x", versions)

    def test_constructor_rejects_a_version_of_another_key(self):
        with pytest.raises(DatabaseError):
            VersionChain("x", [ObjectVersion("y", 1, created_index=0, created_by="T0")])

    @pytest.mark.parametrize("earlier", [(), (0,)])
    def test_nan_index_rejected(self, earlier):
        # NaN compares false both ways, so a ``<`` check let it through and
        # broke the bisection of every later read.
        chain = VersionChain("x", [ObjectVersion("x", 0, index, "T0") for index in earlier])
        with pytest.raises(DatabaseError):
            chain.append(ObjectVersion("x", 1, created_index=float("nan"), created_by="T1"))
        assert len(chain) == len(earlier)

    def test_prune_invalid_keep_rejected(self):
        with pytest.raises(DatabaseError):
            VersionChain(key="x").prune_before(1, keep_at_least=0)

    def test_visible_at_matches_a_linear_scan_through_every_mutator(self):
        def scan(chain, max_index):
            visible = None
            for version in chain_versions(chain):
                if version.created_index <= max_index:
                    visible = version
            return visible

        def check(chain):
            for doubled in range(-3, 20):
                # Records are built on request: equal in all five fields.
                assert chain.visible_at(doubled / 2) == scan(chain, doubled / 2)

        initial = [ObjectVersion("x", "loaded", created_index=-1, created_by="__initial__")]
        chain = VersionChain(key="x", versions=initial)
        check(chain)
        # Equal indices: the later-installed version is the visible one.
        for index in (0, 2, 2, 3, 5, 5, 5, 8):
            chain.append(ObjectVersion("x", len(chain), created_index=index, created_by=f"T{len(chain)}"))
            check(chain)
        assert chain.visible_at(5).created_by == "T7"
        assert chain.prune_before(3, keep_at_least=2) == 4
        check(chain)
        assert chain.visible_at(2.5) is None


class _ListChain:
    """Reference layout: a plain list of :class:`ObjectVersion` records."""

    def __init__(self):
        self.versions = []

    def visible_at(self, max_index):
        visible = None
        for version in self.versions:
            if version.created_index <= max_index:
                visible = version
        return visible

    def prune_before(self, min_index, keep_at_least):
        older = sum(1 for version in self.versions if version.created_index < min_index)
        removed = max(0, min(older, len(self.versions) - keep_at_least))
        del self.versions[:removed]
        return removed


def _mutate_deeply(value):
    """Change a list or dict value inside its first nested list, else at the top."""
    items = value.values() if isinstance(value, dict) else value
    inner = next((item for item in items if isinstance(item, list)), None)
    if inner is not None:
        inner.append(99)
    elif isinstance(value, dict):
        value["z"] = [99]
    else:
        value.append([99])


_VALUES = st.one_of(
    st.integers(),
    st.text(max_size=3),
    st.lists(st.lists(st.integers(), max_size=2), max_size=2),
    st.dictionaries(st.sampled_from("xy"), st.lists(st.integers(), max_size=2), max_size=2),
)
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("install"), st.sampled_from("ab"), st.integers(0, 3), _VALUES),
        st.tuples(st.just("prune"), st.integers(-1, 12), st.integers(1, 3)),
    ),
    max_size=25,
)


class TestColumnLayout:
    """The column chain and the store answer as a list of records would."""

    @given(initial=_VALUES, steps=_STEPS)
    @example(
        initial=[[0]],
        steps=[("install", "a", 0, [[1]]), ("install", "a", 0, {"x": [2]}), ("prune", 0, 1)],
    )
    @settings(max_examples=150, deadline=None)
    def test_chain_and_store_match_a_list_of_records(self, initial, steps):
        store = MultiVersionStore()
        store.load("a", initial)
        first = ObjectVersion("a", copy.deepcopy(initial), -1, "__initial__")
        chains = {"a": VersionChain("a", [first]), "b": VersionChain("b")}
        references = {"a": _ListChain(), "b": _ListChain()}
        references["a"].versions.append(first)
        last_index = {"a": 0, "b": 0}
        for step in steps:
            if step[0] == "install":
                _, key, step_size, value = step
                index = last_index[key] = last_index[key] + step_size
                writer, at = f"T{index}", index / 10
                store.install(key, value, created_index=index, created_by=writer, created_at=at)
                chains[key].append(ObjectVersion(key, value, index, writer, at))
                # A deep copy: a read that leaked the stored object would
                # mutate the reference too, and compare equal regardless.
                references[key].versions.append(
                    ObjectVersion(key, copy.deepcopy(value), index, writer, at)
                )
            else:
                _, min_index, keep = step
                expected = [references[key].prune_before(min_index, keep) for key in "ab"]
                assert [chains[key].prune_before(min_index, keep) for key in "ab"] == expected
                assert store.prune(min_index, keep_at_least=keep) == sum(expected)
            self._check(store, chains, references, max(last_index.values()))

    @staticmethod
    def _check(store, chains, references, top_index):
        latest = {}
        for key, reference in references.items():
            chain, versions = chains[key], reference.versions
            assert chain_versions(chain) == versions
            assert len(chain) == store.version_count(key) == len(versions)
            newest = versions[-1] if versions else None
            assert chain.visible_at(INF) == store.version_at(key, INF) == newest
            if newest is not None:
                latest[key] = newest.value
                assert store.read_latest(key) == newest.value
            for doubled in range(-4, 2 * top_index + 4):
                at = doubled / 2
                visible = reference.visible_at(at)
                assert chain.visible_at(at) == store.version_at(key, at) == visible
                if visible is None:
                    assert store.writer_at(key, at) is None
                    continue
                assert store.writer_at(key, at) == visible.created_by
                value = store.read_version(key, at)
                assert value == visible.value
                if isinstance(value, (list, dict)):
                    # Later reads of the same version see none of this.
                    _mutate_deeply(value)
        assert store.dump_latest() == latest


class TestMultiVersionStore:
    def build_store(self):
        store = MultiVersionStore()
        store.load_many({"a": 1, "b": 2})
        return store

    def test_load_and_read_latest(self):
        store = self.build_store()
        assert store.read_latest("a") == 1
        assert store.exists("b")
        assert not store.exists("missing")

    def test_read_missing_raises(self):
        store = self.build_store()
        with pytest.raises(UnknownObjectError):
            store.read_latest("missing")

    def test_install_and_versioned_read(self):
        store = self.build_store()
        store.install("a", 10, created_index=0, created_by="T0")
        store.install("a", 20, created_index=3, created_by="T3")
        assert store.read_latest("a") == 20
        assert store.read_version("a", 0.5) == 10
        assert store.read_version("a", 2.9) == 10
        assert store.read_version("a", 3.5) == 20
        assert store.read_version("a", -1) == 1  # the initial load

    def test_read_version_before_anything_visible_raises(self):
        store = MultiVersionStore()
        store.install("fresh", 1, created_index=5, created_by="T5")
        with pytest.raises(UnknownObjectError):
            store.read_version("fresh", 2.0)

    def test_values_are_copied_on_read(self):
        store = MultiVersionStore()
        store.load("doc", {"items": [1, 2]})
        value = store.read_latest("doc")
        value["items"].append(3)
        assert store.read_latest("doc") == {"items": [1, 2]}

    def test_mutating_a_returned_list_or_dict_leaves_the_store_alone(self):
        store = MultiVersionStore()
        store.load("doc", {"tags": ["a"]})
        store.install("seq", [1, 2], created_index=0, created_by="T0")
        document = store.read_latest("doc")
        document["tags"].append("b")
        document["new"] = 1
        sequence = store.read_version("seq", 0.5)
        sequence.append(3)
        assert store.read_latest("doc") == {"tags": ["a"]}
        assert store.read_latest("seq") == [1, 2]
        assert store.dump_latest() == {"doc": {"tags": ["a"]}, "seq": [1, 2]}

    @pytest.mark.parametrize("value", [7, 2**70, 1.5, "text", True, None])
    def test_scalars_come_back_unchanged(self, value):
        store = MultiVersionStore()
        store.load("k", value)
        copied = store.read_latest("k")
        assert copied is value
        assert type(copied) is type(value)

    def test_dump_latest(self):
        store = self.build_store()
        store.install("a", 5, created_index=0, created_by="T0")
        assert store.dump_latest() == {"a": 5, "b": 2}
        assert store.dump_latest(keys=["b"]) == {"b": 2}

    def test_prune_removes_old_versions(self):
        store = MultiVersionStore()
        store.load("k", 0)
        for index in range(10):
            store.install("k", index, created_index=index, created_by=f"T{index}")
        removed = store.prune(8)
        assert removed > 0
        assert store.read_latest("k") == 9

    def test_stats_track_reads_and_writes(self):
        store = self.build_store()
        store.read_latest("a")
        store.read_version("a", 10)
        store.install("a", 2, created_index=0, created_by="T0")
        assert store.stats.reads == 1
        assert store.stats.snapshot_reads == 1
        assert store.stats.writes == 1

    @given(
        writes=st.lists(
            st.tuples(st.integers(min_value=0, max_value=30), st.integers()),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_versioned_reads_return_last_write_at_or_before_index(self, writes):
        """Property: a snapshot read at index i sees the last write with index <= i."""
        store = MultiVersionStore()
        store.load("k", -999)
        ordered = sorted(writes, key=lambda item: item[0])
        installed = []
        last_index = None
        for index, value in ordered:
            if last_index is not None and index == last_index:
                continue  # keep strictly increasing indices for a clean oracle
            store.install("k", value, created_index=index, created_by=f"T{index}")
            installed.append((index, value))
            last_index = index
        for probe in range(-1, 32):
            visible = [value for index, value in installed if index <= probe]
            expected = visible[-1] if visible else -999
            assert store.read_version("k", probe + 0.5) == expected


class TestSnapshotManager:
    def test_query_index_is_last_processed_plus_half(self):
        store = MultiVersionStore()
        manager = SnapshotManager(store)
        assert manager.next_query_index() == pytest.approx(-0.5)
        for index in range(5):
            manager.advance(index)
        assert manager.next_query_index() == pytest.approx(4.5)

    def test_frontier_waits_for_gaps_to_fill(self):
        # Commits of different conflict classes may complete out of
        # definitive order; the query frontier must not jump a gap, or a
        # query could miss a smaller-indexed transaction that installs its
        # versions after the query already read.
        manager = SnapshotManager(MultiVersionStore())
        manager.advance(0)
        manager.advance(2)
        assert manager.last_processed_index == 0
        manager.advance(1)
        assert manager.last_processed_index == 2

    def test_replayed_advance_is_idempotent(self):
        manager = SnapshotManager(MultiVersionStore())
        for index in (0, 1, 1, 0):
            manager.advance(index)
        assert manager.last_processed_index == 1

    def test_snapshot_reads_are_stable_despite_later_commits(self):
        store = MultiVersionStore()
        store.load("x", 0)
        manager = SnapshotManager(store)
        store.install("x", 1, created_index=0, created_by="T0")
        manager.advance(0)
        snapshot = manager.snapshot()
        store.install("x", 2, created_index=1, created_by="T1")
        manager.advance(1)
        assert snapshot.read("x") == 1
        assert manager.snapshot().read("x") == 2

    def test_one_snapshot_reads_every_key_at_its_index(self):
        store = MultiVersionStore()
        store.load_many({"x": 0, "y": 0})
        manager = SnapshotManager(store)
        store.install("x", 1, created_index=0, created_by="T0")
        manager.advance(0)
        snapshot = manager.snapshot()
        store.install("y", 1, created_index=1, created_by="T1")
        manager.advance(1)
        assert [snapshot.read(key) for key in ("x", "y")] == [1, 0]

    def test_future_snapshot_rejected(self):
        manager = SnapshotManager(MultiVersionStore())
        with pytest.raises(SnapshotError):
            manager.snapshot(query_index=10.5)

    def test_garbage_collect_respects_horizon(self):
        store = MultiVersionStore()
        store.load("x", 0)
        manager = SnapshotManager(store)
        for index in range(20):
            store.install("x", index, created_index=index, created_by=f"T{index}")
            manager.advance(index)
        removed = manager.garbage_collect(keep_last=2)
        assert removed > 0
        assert store.read_latest("x") == 19
        # Recent snapshots still work.
        assert manager.snapshot(query_index=18.5).read("x") == 18

    @given(
        indices=st.one_of(
            st.integers(min_value=0, max_value=30).map(lambda n: list(range(n))),
            st.permutations(list(range(12))),
            st.lists(st.integers(min_value=-1, max_value=15), max_size=30),
        )
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_frontier_matches_a_reference_over_any_index_sequence(self, indices):
        manager = SnapshotManager(MultiVersionStore())
        committed = set()
        for index in indices:
            manager.advance(index)
            committed.add(index)
            frontier = MultiVersionStore.INITIAL_INDEX
            while frontier + 1 in committed:
                frontier += 1
            assert manager.last_processed_index == frontier
