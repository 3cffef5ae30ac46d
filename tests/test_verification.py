"""Tests for the 1-copy-serializability and broadcast property checkers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database import MultiVersionStore
from repro.database.history import CommittedTransaction, SiteHistory
from repro.errors import VerificationError
from repro import ClusterConfig, ReplicatedDatabase
from repro.verification import check_cluster, check_one_copy_serializability
from repro.workloads import (
    WorkloadGenerator,
    WorkloadSpec,
    build_conflict_map,
    build_initial_data,
    build_partitioned_registry,
)
from repro.verification.properties import check_broadcast_properties
from repro.broadcast.interfaces import AtomicBroadcastEndpoint

from oracles import (
    committed_transactions,
    histories_conflict_equivalent,
    one_copy_serializable,
)

INITIAL = MultiVersionStore.INITIAL_INDEX


def committed(txn_id, conflict_class, index, writes=(), reads=()):
    return CommittedTransaction(
        transaction_id=txn_id,
        conflict_class=conflict_class,
        global_index=index,
        committed_at=float(index),
        write_keys=tuple(writes),
        read_keys=tuple(reads),
    )


def local_versions(commits):
    """Per commit, the version each of its reads returns when a site commits
    ``commits`` in the order given: the last write of the key before it."""
    last_write = {}
    versions = []
    for commit in commits:
        versions.append([last_write.get(key, INITIAL) for key in commit.read_keys])
        for key in commit.write_keys:
            last_write[key] = commit.global_index
    return versions


def history_from(site_id, commits, read_versions=None):
    """A site that committed ``commits`` in the order given; its reads return
    ``read_versions`` (one list per commit), by default :func:`local_versions`."""
    history = SiteHistory(site_id, "T{}".format)
    if read_versions is None:
        read_versions = local_versions(commits)
    for commit, versions in zip(commits, read_versions):
        history.record_commit(commit, versions)
    return history


def swap_rows(history, i, j):
    """Swap two commits in a site's local commit order, all but the read
    versions (those stay where the site recorded them)."""
    for column in (history.ids, history.classes, history.indices, history.committed_at,
                   history.message_ids, history.key_starts, history.write_ends,
                   history.read_ends):
        column[i], column[j] = column[j], column[i]
    history.row_of[history.ids[i]], history.row_of[history.ids[j]] = i, j


class TestOneCopyChecker:
    def test_identical_histories_pass(self):
        commits = [
            committed(1, "Cx", 0, writes=["x"], reads=["x"]),
            committed(2, "Cx", 1, writes=["x"], reads=["x"]),
            committed(3, "Cy", 2, reads=["x", "y"]),
        ]
        histories = {
            "N1": history_from("N1", commits),
            "N2": history_from("N2", commits),
        }
        report = check_one_copy_serializability(histories)
        assert report.ok
        report.raise_if_violated()
        assert list(histories["N1"].read_versions) == [INITIAL, 0, 1, INITIAL]

    def test_missing_transaction_detected(self):
        histories = {
            "N1": history_from("N1", [committed(1, "Cx", 0), committed(2, "Cx", 1)]),
            "N2": history_from("N2", [committed(1, "Cx", 0)]),
        }
        report = check_one_copy_serializability(histories)
        assert report.violations == [
            "site N2 is missing 1 transactions committed at N1 (e.g. ['T2'])"
        ]
        with pytest.raises(VerificationError):
            report.raise_if_violated()

    def test_extra_transaction_detected(self):
        histories = {
            "N1": history_from("N1", [committed(1, "Cx", 0)]),
            "N2": history_from("N2", [committed(1, "Cx", 0), committed(9, "Cy", 1)]),
        }
        assert check_one_copy_serializability(histories).violations == [
            "site N2 committed 1 transactions unknown to N1 (e.g. ['T9'])"
        ]

    def test_index_disagreeing_between_sites_detected(self):
        histories = {
            "N1": history_from("N1", [committed(1, "Cx", 0), committed(2, "Cy", 1)]),
            "N2": history_from("N2", [committed(1, "Cx", 2), committed(2, "Cy", 1)]),
        }
        assert check_one_copy_serializability(histories).violations == [
            "T1 committed at index 0 at N1 but at index 2 at N2"
        ]

    def test_divergent_class_order_detected(self):
        histories = {
            "N1": history_from("N1", [committed(1, "Cx", 0), committed(2, "Cx", 1)]),
            "N2": history_from("N2", [committed(2, "Cx", 1), committed(1, "Cx", 0)]),
        }
        assert check_one_copy_serializability(histories).violations == [
            "site N2 commits class Cx out of index order: T1 (index 0) after T2 (index 1)"
        ]

    def test_key_written_out_of_index_order_detected(self):
        # Two classes write a key no class owns, in opposite orders at N2.
        first = committed(1, "Cx", 0, writes=["shared"])
        second = committed(2, "Cy", 1, writes=["shared"])
        histories = {
            "N1": history_from("N1", [first, second]),
            "N2": history_from("N2", [second, first]),
        }
        assert check_one_copy_serializability(histories).violations == [
            "site N2 writes 'shared' out of index order: T1 (index 0) after T2 (index 1)"
        ]

    def test_stale_read_detected(self):
        # T2 read x as it was before T1's write: a lost update.
        commits = [
            committed(1, "Cx", 0, writes=["x"], reads=["x"]),
            committed(2, "Cx", 1, writes=["x"], reads=["x"]),
        ]
        histories = {
            "N1": history_from("N1", commits),
            "N2": history_from("N2", commits, read_versions=[[INITIAL], [INITIAL]]),
        }
        assert check_one_copy_serializability(histories).violations == [
            "site N2: T2 (index 1) read 'x' at version -1, but its last writer "
            "before it is at index 0 (stale read)"
        ]

    def test_read_from_a_later_index_detected(self):
        # T1 read the version T2 wrote after it in the definitive order.
        commits = [
            committed(1, "Cx", 0, reads=["y"]),
            committed(2, "Cy", 1, writes=["y"]),
        ]
        histories = {
            "N1": history_from("N1", commits),
            "N2": history_from("N2", commits, read_versions=[[1], []]),
        }
        assert check_one_copy_serializability(histories).violations == [
            "site N2: T1 (index 0) read 'y' at version 1, later than its last "
            "writer before it at index -1"
        ]

    def test_two_transactions_at_one_index_detected(self):
        commits = [committed(1, "Cx", 4), committed(2, "Cy", 4)]
        histories = {"N1": history_from("N1", commits)}
        assert check_one_copy_serializability(histories).violations == [
            "site N1 commits T1 and T2 at the same index 4"
        ]

    def test_every_read_key_needs_its_version(self):
        history = SiteHistory("N1", "T{}".format)
        history.record_commit(committed(1, "Cx", 0, reads=["x", "y"]), [INITIAL])
        assert check_one_copy_serializability({"N1": history}).violations == [
            "site N1 recorded 1 read versions for 2 read keys"
        ]

    def test_non_conflicting_reordering_across_sites_is_allowed(self):
        histories = {
            "N1": history_from("N1", [committed(1, "Cx", 0), committed(2, "Cy", 1)]),
            "N2": history_from("N2", [committed(2, "Cy", 1), committed(1, "Cx", 0)]),
        }
        assert check_one_copy_serializability(histories).ok

    def test_definitive_order_violation_detected(self):
        histories = {
            "N1": history_from("N1", [committed(2, "Cx", 1), committed(1, "Cx", 0)]),
        }
        report = check_one_copy_serializability(histories)
        assert not report.ok

    def test_empty_histories_pass(self):
        assert check_one_copy_serializability({}).ok

    def test_conflict_equivalence(self):
        first = [committed(1, "Cx", 0), committed(2, "Cy", 1), committed(3, "Cx", 2)]
        same_conflicts = [committed(2, "Cy", 1), committed(1, "Cx", 0), committed(3, "Cx", 2)]
        flipped = [committed(3, "Cx", 2), committed(2, "Cy", 1), committed(1, "Cx", 0)]
        assert histories_conflict_equivalent(first, same_conflicts)
        assert not histories_conflict_equivalent(first, flipped)
        assert not histories_conflict_equivalent(first, first[:2])


#: Each class owns its keys; ``u1`` and ``u2`` belong to no class.
OWNED_KEYS = {"Cx": ("x1", "x2"), "Cy": ("y1", "y2"), "Cz": ("z1",)}
ALL_KEYS = ("u1", "u2") + tuple(key for keys in OWNED_KEYS.values() for key in keys)


@st.composite
def definitive_histories(draw):
    """Transactions at indices 0..n-1 in the definitive order: each writes
    up to two of its class's keys or the unowned ones (possibly none) and
    reads up to two keys of any class."""
    commits = []
    for index in range(draw(st.integers(min_value=1, max_value=8))):
        conflict_class = draw(st.sampled_from(sorted(OWNED_KEYS)))
        writable = OWNED_KEYS[conflict_class] + ("u1", "u2")
        commits.append(
            committed(
                index,
                conflict_class,
                index,
                writes=sorted(draw(st.sets(st.sampled_from(writable), max_size=2))),
                reads=sorted(draw(st.sets(st.sampled_from(ALL_KEYS), max_size=2))),
            )
        )
    return commits


@st.composite
def replicated_histories(draw):
    """One to three sites, each committing the definitive order with a few
    random swaps and now and then a dropped commit; every read returns the
    version that site's own order gives it, so a swap shows as a stale read
    or a read from a later index."""
    base = draw(definitive_histories())
    position = st.integers(min_value=0, max_value=len(base) - 1)
    sites = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        commits = list(base)
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            first, second = draw(position), draw(position)
            commits[first], commits[second] = commits[second], commits[first]
        if draw(st.integers(min_value=0, max_value=5)) == 0:
            del commits[draw(position)]
        sites.append(commits)
    return sites


class TestReplayAgainstTheDefinition:
    @given(sites=replicated_histories())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_the_replay_rejects_whatever_the_all_pairs_definition_rejects(self, sites):
        histories = {
            f"N{number}": history_from(f"N{number}", commits)
            for number, commits in enumerate(sites)
        }
        report = check_one_copy_serializability(histories)
        if not one_copy_serializable(*sites):
            assert not report.ok

    @given(commits=definitive_histories(), site_count=st.integers(min_value=1, max_value=3))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_the_replay_accepts_every_history_serial_in_index_order(self, commits, site_count):
        histories = {
            f"N{number}": history_from(f"N{number}", commits) for number in range(site_count)
        }
        report = check_one_copy_serializability(histories)
        assert report.ok, report.violations
        assert one_copy_serializable(*[commits] * site_count)


class FakeEndpoint(AtomicBroadcastEndpoint):
    """Scriptable endpoint used to exercise the property checker; message
    ``i`` is named ``m<i>``."""

    def broadcast(self, payload):  # pragma: no cover - not used
        raise NotImplementedError

    def name(self, message_id):
        return f"m{message_id}"

    def script(self, opt_order, to_order):
        for position, message_id in enumerate(opt_order):
            self._emit_opt_deliver(self.row_for(message_id), message_id, float(position))
        for position, message_id in enumerate(to_order):
            self._emit_to_deliver(
                self.row_for(message_id), message_id, position, 100.0 + position
            )

    def row_for(self, message_id):
        row = self._live_row(message_id)
        if row < 0:
            row = self._add_row(message_id, None)
        return row


# The property checker reads only the delivery logs and delivery columns, so
# the fake leaves the coordinator/recovery surface unimplemented.
FakeEndpoint.__abstractmethods__ = frozenset()


class TestBroadcastPropertyChecker:
    def test_consistent_endpoints_pass(self):
        endpoints = {}
        for site in ("N1", "N2"):
            endpoint = FakeEndpoint(site)
            endpoint.script([1, 2, 3], [1, 2, 3])
            endpoints[site] = endpoint
        report = check_broadcast_properties(endpoints, expected_broadcasts=[1, 2, 3])
        assert report.ok

    def test_divergent_to_order_detected(self):
        first, second = FakeEndpoint("N1"), FakeEndpoint("N2")
        first.script([1, 2], [1, 2])
        second.script([1, 2], [2, 1])
        report = check_broadcast_properties({"N1": first, "N2": second})
        assert not report.ok
        assert any("Global Order" in violation for violation in report.violations)

    def test_missing_to_delivery_detected(self):
        first, second = FakeEndpoint("N1"), FakeEndpoint("N2")
        first.script([1, 2], [1, 2])
        second.script([1, 2], [1])
        report = check_broadcast_properties(
            {"N1": first, "N2": second}, expected_broadcasts=[1, 2]
        )
        assert not report.ok
        assert any("Local Agreement" in v or "Termination" in v for v in report.violations)

    def test_to_delivery_without_opt_delivery_detected(self):
        endpoint = FakeEndpoint("N1")
        endpoint.script([1], [1, 2])
        report = check_broadcast_properties({"N1": endpoint})
        assert not report.ok
        assert any("Local Order" in violation for violation in report.violations)

    @pytest.mark.parametrize("opt_time", [-1.0, 150.0], ids=["never", "after_to"])
    def test_a_row_opt_delivered_late_or_never_breaks_local_order(self, opt_time):
        # Both logs agree; only the row's time columns say the Opt-delivery
        # of m2 did not come first.
        endpoint = FakeEndpoint("N1")
        endpoint.script([1, 2], [1, 2])
        endpoint.opt_times[endpoint.row(2)] = opt_time
        report = check_broadcast_properties({"N1": endpoint})
        assert report.violations == [
            "Local Order: site N1 TO-delivered m2 before Opt-delivering it"
        ]

    def test_divergent_tentative_orders_are_allowed(self):
        first, second = FakeEndpoint("N1"), FakeEndpoint("N2")
        first.script([1, 2], [1, 2])
        second.script([2, 1], [1, 2])
        assert check_broadcast_properties({"N1": first, "N2": second}).ok

    def test_empty_endpoints_pass(self):
        assert check_broadcast_properties({}).ok


class TestCheckClusterOnFlatRuns:
    """A flat cluster is the one-group case of ``check_cluster``."""

    def run_flat_cluster(self):
        spec = WorkloadSpec(class_count=2, updates_per_site=8)
        cluster = ReplicatedDatabase(
            ClusterConfig(site_count=3, seed=3),
            build_partitioned_registry(spec),
            conflict_map=build_conflict_map(spec),
            initial_data=build_initial_data(spec),
        )
        WorkloadGenerator(spec).apply(cluster)
        cluster.run_until_idle()
        return cluster

    def test_clean_flat_run_passes_every_layer(self):
        report = check_cluster(self.run_flat_cluster())
        report.raise_if_violated()
        assert set(report.one_copy.per_shard_one_copy) == {"global"}
        assert report.liveness.transactions_checked == 24
        assert report.queries.queries_checked == 0

    def test_commit_order_contradicting_the_definitive_order_is_caught(self):
        """Swap the same two same-class transactions in *every* site's
        history: the sites still agree with each other, and a conflict graph
        over their commit orders stays acyclic, but each site now commits the
        class against the definitive order (Lemma 4.1)."""
        cluster = self.run_flat_cluster()
        histories = cluster.histories()
        commits = committed_transactions(histories["N1"])
        victim_class = commits[0].conflict_class
        first, second = [c.transaction_id for c in commits if c.conflict_class == victim_class][:2]
        for history in histories.values():
            swap_rows(history, history.row(first), history.row(second))
        assert not check_one_copy_serializability(histories).ok
        report = check_cluster(cluster)
        assert not report.ok
        assert any(
            f"commits class {victim_class} out of index order: "
            f"{histories['N1'].name_of(first)}" in violation
            for violation in report.violations
        )
        with pytest.raises(VerificationError):
            report.raise_if_violated()

    def test_every_read_of_a_run_is_recorded_with_the_version_it_returned(self):
        """The replay's evidence: one version per read key, in commit order."""
        cluster = self.run_flat_cluster()
        for history in cluster.histories().values():
            commits = committed_transactions(history)
            read_keys = sum(len(commit.read_keys) for commit in commits)
            assert read_keys >= len(commits) > 0
            assert len(history.read_versions) == read_keys
            # Later commits read what earlier ones wrote.
            assert max(history.read_versions) >= 0
