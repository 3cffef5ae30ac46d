"""Tests for the 1-copy-serializability and broadcast property checkers."""

import pytest

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
from repro.broadcast.interfaces import AtomicBroadcastEndpoint, BroadcastMessage

from oracles import histories_conflict_equivalent


def committed(txn_id, conflict_class, index, writes=()):
    return CommittedTransaction(
        transaction_id=txn_id,
        conflict_class=conflict_class,
        global_index=index,
        committed_at=float(index),
        write_keys=tuple(writes),
    )


def history_from(site_id, commits):
    history = SiteHistory(site_id)
    for commit in commits:
        history.record_commit(commit)
    return history


class TestOneCopyChecker:
    def test_identical_histories_pass(self):
        commits = [committed("T1", "Cx", 0), committed("T2", "Cx", 1), committed("T3", "Cy", 2)]
        histories = {
            "N1": history_from("N1", commits),
            "N2": history_from("N2", commits),
        }
        report = check_one_copy_serializability(histories)
        assert report.ok
        report.raise_if_violated()
        assert report.sites_checked == 2
        assert report.transactions_checked == 3
        # T1 -> T2 in class Cx; T3 is alone in Cy.
        assert report.conflict_edges == 1

    def test_missing_transaction_detected(self):
        histories = {
            "N1": history_from("N1", [committed("T1", "Cx", 0), committed("T2", "Cx", 1)]),
            "N2": history_from("N2", [committed("T1", "Cx", 0)]),
        }
        report = check_one_copy_serializability(histories)
        assert not report.ok
        assert any("missing" in violation for violation in report.violations)
        with pytest.raises(VerificationError):
            report.raise_if_violated()

    def test_divergent_class_order_detected(self):
        histories = {
            "N1": history_from("N1", [committed("T1", "Cx", 0), committed("T2", "Cx", 1)]),
            "N2": history_from("N2", [committed("T2", "Cx", 1), committed("T1", "Cx", 0)]),
        }
        report = check_one_copy_serializability(histories)
        assert not report.ok
        assert any("commit order differs" in violation for violation in report.violations)

    def test_non_conflicting_reordering_across_sites_is_allowed(self):
        histories = {
            "N1": history_from("N1", [committed("T1", "Cx", 0), committed("T2", "Cy", 1)]),
            "N2": history_from("N2", [committed("T2", "Cy", 1), committed("T1", "Cx", 0)]),
        }
        assert check_one_copy_serializability(histories).ok

    def test_definitive_order_violation_detected(self):
        histories = {
            "N1": history_from("N1", [committed("T2", "Cx", 1), committed("T1", "Cx", 0)]),
        }
        report = check_one_copy_serializability(histories, definitive_order=["T1", "T2"])
        assert not report.ok

    def test_empty_histories_pass(self):
        assert check_one_copy_serializability({}).ok

    def test_conflict_equivalence(self):
        first = [committed("T1", "Cx", 0), committed("T2", "Cy", 1), committed("T3", "Cx", 2)]
        same_conflicts = [committed("T2", "Cy", 1), committed("T1", "Cx", 0), committed("T3", "Cx", 2)]
        flipped = [committed("T3", "Cx", 2), committed("T2", "Cy", 1), committed("T1", "Cx", 0)]
        assert histories_conflict_equivalent(first, same_conflicts)
        assert not histories_conflict_equivalent(first, flipped)
        assert not histories_conflict_equivalent(first, first[:2])


class FakeEndpoint(AtomicBroadcastEndpoint):
    """Scriptable endpoint used to exercise the property checker."""

    def broadcast(self, payload):  # pragma: no cover - not used
        raise NotImplementedError

    def script(self, opt_order, to_order):
        for position, message_id in enumerate(opt_order):
            message = BroadcastMessage(message_id=message_id, origin="N1", payload=None)
            message.opt_delivered_at = float(position)
            self._messages[message_id] = message
            self._emit_opt_deliver(message)
        for position, message_id in enumerate(to_order):
            message = self._messages.setdefault(
                message_id, BroadcastMessage(message_id=message_id, origin="N1", payload=None)
            )
            message.to_delivered_at = 100.0 + position
            self._emit_to_deliver(message)


# The property checker reads only the delivery logs and message records, so
# the fake leaves the coordinator/recovery surface unimplemented.
FakeEndpoint.__abstractmethods__ = frozenset()


class TestBroadcastPropertyChecker:
    def test_consistent_endpoints_pass(self):
        endpoints = {}
        for site in ("N1", "N2"):
            endpoint = FakeEndpoint(site)
            endpoint.script(["m1", "m2", "m3"], ["m1", "m2", "m3"])
            endpoints[site] = endpoint
        report = check_broadcast_properties(endpoints, expected_broadcasts=["m1", "m2", "m3"])
        assert report.ok
        assert report.messages_checked == 3

    def test_divergent_to_order_detected(self):
        first, second = FakeEndpoint("N1"), FakeEndpoint("N2")
        first.script(["m1", "m2"], ["m1", "m2"])
        second.script(["m1", "m2"], ["m2", "m1"])
        report = check_broadcast_properties({"N1": first, "N2": second})
        assert not report.ok
        assert any("Global Order" in violation for violation in report.violations)

    def test_missing_to_delivery_detected(self):
        first, second = FakeEndpoint("N1"), FakeEndpoint("N2")
        first.script(["m1", "m2"], ["m1", "m2"])
        second.script(["m1", "m2"], ["m1"])
        report = check_broadcast_properties(
            {"N1": first, "N2": second}, expected_broadcasts=["m1", "m2"]
        )
        assert not report.ok
        assert any("Local Agreement" in v or "Termination" in v for v in report.violations)

    def test_to_delivery_without_opt_delivery_detected(self):
        endpoint = FakeEndpoint("N1")
        endpoint.script(["m1"], ["m1", "m2"])
        report = check_broadcast_properties({"N1": endpoint})
        assert not report.ok
        assert any("Local Order" in violation for violation in report.violations)

    def test_divergent_tentative_orders_are_allowed(self):
        first, second = FakeEndpoint("N1"), FakeEndpoint("N2")
        first.script(["m1", "m2"], ["m1", "m2"])
        second.script(["m2", "m1"], ["m1", "m2"])
        assert check_broadcast_properties({"N1": first, "N2": second}).ok

    def test_empty_endpoints_pass(self):
        assert check_broadcast_properties({}).ok


class TestCheckClusterOnFlatRuns:
    """A flat cluster is the one-group case: Lemma 4.1 is checked there too."""

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
        """Regression: flat runs were verified without ``definitive_order=``.

        Swap the same two same-class transactions in *every* site's history:
        the sites still agree with each other and the conflict graph stays
        acyclic, so only the comparison against the coordinator's
        TO-delivery log (Lemma 4.1) can notice.
        """
        cluster = self.run_flat_cluster()
        histories = cluster.histories()
        victim_class, order = sorted(histories["N1"].commit_orders_by_class().items())[0]
        first, second = order[:2]
        for history in histories.values():
            ids = history.transaction_ids()
            i, j = ids.index(first), ids.index(second)
            history._commits[i], history._commits[j] = history._commits[j], history._commits[i]
        assert check_one_copy_serializability(histories).ok  # what flat runs used to check
        report = check_cluster(cluster)
        assert not report.ok
        assert any(
            f"class {victim_class}: commit order does not follow the definitive total order"
            in violation
            for violation in report.violations
        )
        with pytest.raises(VerificationError):
            report.raise_if_violated()
