"""Unit tests for the OTP scheduler (Serialization / Execution / Correctness-Check).

These tests drive the scheduler directly with Opt-deliver / TO-deliver events
and include the two worked examples of paper Section 3.3 as well as the
reordering scenario of Section 3.2.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.execution import ExecutionEngine
from repro.core.scheduler import OTPScheduler
from repro.database import (
    DeliveryState,
    ExecutionState,
    MultiVersionStore,
    ProcedureRegistry,
    StoredProcedure,
    Transaction,
    TransactionRequest,
)
from repro.errors import SchedulerError
from repro.metrics import MetricsCollector
from repro.simulation import SimulationKernel


class SchedulerHarness:
    """A single-site OTP scheduler with a controllable execution duration."""

    def __init__(self, duration=0.010, seed=0):
        self.kernel = SimulationKernel(seed=seed)
        self.store = MultiVersionStore()
        self.store.load_many({f"obj:{index}": 0 for index in range(10)})
        self.registry = ProcedureRegistry()

        def body(ctx, params):
            key = params.get("key", "obj:0")
            ctx.write(key, ctx.read_or_default(key, 0) + 1)
            return params.get("label")

        self.registry.register(
            StoredProcedure(name="work", body=body, conflict_class="C", duration=duration)
        )
        self.engine = ExecutionEngine(self.kernel, self.store, self.registry, "N1")
        self.committed = []
        self.scheduler = OTPScheduler(
            self.kernel,
            self.engine,
            commit_callback=self.committed.append,
            metrics=MetricsCollector("otp-scheduler"),
        )
        self._counter = 0

    def transaction(self, txn_id, conflict_class="Cx"):
        request = TransactionRequest(
            transaction_id=txn_id,
            procedure_name="work",
            parameters={"label": txn_id},
            conflict_class=conflict_class,
            origin_site="N1",
            submitted_at=self.kernel.now(),
        )
        return Transaction(request=request, site_id="N1")

    def opt_deliver(self, transaction):
        self.scheduler.on_opt_deliver(transaction)

    def to_deliver(self, transaction, index=None):
        if index is None:
            index = self._counter
        self._counter = max(self._counter, index) + 1
        self.scheduler.on_to_deliver(transaction.transaction_id, index)

    def committed_ids(self):
        return [transaction.transaction_id for transaction in self.committed]


class TestSerializationModule:
    def test_first_transaction_in_queue_starts_executing(self):
        harness = SchedulerHarness()
        transaction = harness.transaction(1)
        harness.opt_deliver(transaction)
        assert transaction.executing
        assert harness.scheduler.queue_for("Cx").first() is transaction

    def test_second_transaction_of_same_class_waits(self):
        harness = SchedulerHarness()
        first = harness.transaction(1)
        second = harness.transaction(2)
        harness.opt_deliver(first)
        harness.opt_deliver(second)
        assert first.executing
        assert not second.executing

    def test_transactions_of_different_classes_execute_concurrently(self):
        harness = SchedulerHarness()
        first = harness.transaction(1, conflict_class="Cx")
        second = harness.transaction(2, conflict_class="Cy")
        harness.opt_deliver(first)
        harness.opt_deliver(second)
        assert first.executing and second.executing

    def test_duplicate_opt_delivery_rejected(self):
        harness = SchedulerHarness()
        transaction = harness.transaction(1)
        harness.opt_deliver(transaction)
        with pytest.raises(SchedulerError):
            harness.opt_deliver(transaction)

    def test_second_record_with_the_same_id_rejected(self):
        # Records compare by identity, so the id index is what keeps a site
        # at one record per transaction.
        harness = SchedulerHarness()
        original = harness.transaction(1)
        harness.opt_deliver(original)
        with pytest.raises(SchedulerError):
            harness.opt_deliver(harness.transaction(1))
        assert list(harness.scheduler.queue_for("Cx")) == [original]


class TestExecutionModule:
    def test_executed_but_pending_transaction_waits_for_to_delivery(self):
        harness = SchedulerHarness(duration=0.01)
        transaction = harness.transaction(1)
        harness.opt_deliver(transaction)
        harness.kernel.run_until_idle()
        assert transaction.execution_state is ExecutionState.EXECUTED
        assert transaction.delivery_state is DeliveryState.PENDING
        assert harness.committed == []

    def test_executed_and_committable_transaction_commits(self):
        harness = SchedulerHarness(duration=0.01)
        transaction = harness.transaction(1)
        harness.opt_deliver(transaction)
        harness.to_deliver(transaction, index=0)
        harness.kernel.run_until_idle()
        assert harness.committed_ids() == [1]
        assert transaction.is_committed
        assert transaction.global_index == 0

    def test_commit_starts_next_transaction_in_queue(self):
        harness = SchedulerHarness(duration=0.01)
        first = harness.transaction(1)
        second = harness.transaction(2)
        harness.opt_deliver(first)
        harness.opt_deliver(second)
        harness.to_deliver(first, index=0)
        harness.to_deliver(second, index=1)
        harness.kernel.run_until_idle()
        assert harness.committed_ids() == [1, 2]
        # The second transaction only started executing after the first
        # committed (sequential execution within a class).
        assert second.first_execution_started_at >= first.committed_at


class TestCorrectnessCheckModule:
    def test_to_delivery_of_executed_head_commits_immediately(self):
        harness = SchedulerHarness(duration=0.005)
        transaction = harness.transaction(1)
        harness.opt_deliver(transaction)
        harness.kernel.run_until_idle()  # fully executed, still pending
        harness.to_deliver(transaction, index=0)
        assert transaction.is_committed

    def test_to_delivery_before_opt_delivery_is_rejected(self):
        harness = SchedulerHarness()
        transaction = harness.transaction(1)
        with pytest.raises(SchedulerError):
            harness.scheduler.on_to_deliver(transaction.transaction_id, 0)

    def test_paper_example_one_committable_head_is_not_aborted(self):
        """Section 3.3, first example: CQ = T1[a,c], T2[a,p], T3[a,p].

        T3 is TO-delivered next; it must be rescheduled between T1 and T2
        without aborting T1 (which is committable and still executing).
        """
        harness = SchedulerHarness(duration=0.050)
        t1, t2, t3 = (harness.transaction(i) for i in (1, 2, 3))
        for transaction in (t1, t2, t3):
            harness.opt_deliver(transaction)
        harness.to_deliver(t1, index=0)   # T1 becomes [a,c], still executing
        assert t1.executing
        harness.to_deliver(t3, index=1)   # T3 TO-delivered before T2
        queue = harness.scheduler.queue_for("Cx")
        assert [entry.transaction_id for entry in queue] == [1, 3, 2]
        assert t1.reorder_aborts == 0
        assert t1.executing  # not disturbed
        harness.kernel.run_until_idle()
        harness.to_deliver(t2, index=2)
        harness.kernel.run_until_idle()
        assert harness.committed_ids() == [1, 3, 2]

    def test_paper_example_two_pending_executed_head_is_aborted(self):
        """Section 3.3, second example: CQ = T1[e,p], T2[a,p], T3[a,p].

        T3 is TO-delivered first; T1 must be aborted (undone), T3 moves to
        the head and executes, and T1 is re-executed later.
        """
        harness = SchedulerHarness(duration=0.010)
        t1, t2, t3 = (harness.transaction(i) for i in (1, 2, 3))
        for transaction in (t1, t2, t3):
            harness.opt_deliver(transaction)
        harness.kernel.run_until_idle()  # T1 executes fully -> [e,p]
        assert t1.execution_state is ExecutionState.EXECUTED
        harness.to_deliver(t3, index=0)
        queue = harness.scheduler.queue_for("Cx")
        assert [entry.transaction_id for entry in queue] == [3, 1, 2]
        assert t1.reorder_aborts == 1
        assert t1.execution_state is ExecutionState.ACTIVE
        assert t3.executing
        harness.to_deliver(t1, index=1)
        harness.to_deliver(t2, index=2)
        harness.kernel.run_until_idle()
        assert harness.committed_ids() == [3, 1, 2]
        assert t1.execution_attempts == 2

    def test_rerun_after_reorder_abort_starts_from_an_empty_workspace(self):
        """CC8: nothing the aborted attempt wrote or read carries into the re-run."""
        harness = SchedulerHarness(duration=0.010)
        seen = []

        def probe(ctx, params):
            seen.append((params["label"], dict(ctx.workspace), dict(ctx.reads)))
            ctx.write(f"out:{params['label']}", ctx.read("obj:0") + 1)

        harness.registry.register(
            StoredProcedure(name="probe", body=probe, conflict_class="C", duration=0.010)
        )

        def transaction(txn_id):
            request = TransactionRequest(
                transaction_id=txn_id,
                procedure_name="probe",
                parameters={"label": txn_id},
                conflict_class="Cx",
                origin_site="N1",
            )
            return Transaction(request=request, site_id="N1")

        t1, t3 = transaction(1), transaction(3)
        harness.opt_deliver(t1)
        harness.opt_deliver(t3)
        harness.kernel.run_until_idle()  # T1 executes fully -> [e,p]
        first_workspace, first_reads = t1.workspace, t1.reads
        assert first_workspace == {"out:1": 1} and first_reads == {"obj:0": -1}
        harness.to_deliver(t3, index=0)  # CC8: T1 is aborted behind T3
        assert t1.reorder_aborts == 1
        assert t1.workspace == {} and t1.reads == {}
        harness.to_deliver(t1, index=1)
        harness.kernel.run_until_idle()
        assert harness.committed_ids() == [3, 1]
        assert seen == [(1, {}, {}), (3, {}, {}), (1, {}, {})]
        assert t1.workspace == {"out:1": 1} and t1.reads == {"obj:0": -1}
        assert t1.workspace is not first_workspace
        assert t1.reads is not first_reads

    def test_executing_pending_head_is_cancelled_on_reorder(self):
        """Section 3.2 scenario at N': T6 executing when T5 is TO-delivered first."""
        harness = SchedulerHarness(duration=0.050)
        t6 = harness.transaction(6)
        t5 = harness.transaction(5)
        harness.opt_deliver(t6)  # tentative order: T6 before T5
        harness.opt_deliver(t5)
        harness.kernel.run(until=0.010)
        assert t6.executing
        harness.to_deliver(t5, index=0)  # definitive order: T5 first
        assert t6.reorder_aborts == 1
        assert not t6.executing
        assert t5.executing
        harness.to_deliver(t6, index=1)
        harness.kernel.run_until_idle()
        assert harness.committed_ids() == [5, 6]

    def test_mismatch_between_non_conflicting_transactions_costs_nothing(self):
        """Section 3.2: T2/T3 swapped at N' but in different classes -> no aborts."""
        harness = SchedulerHarness(duration=0.010)
        t2 = harness.transaction(2, conflict_class="Cx")
        t3 = harness.transaction(3, conflict_class="Cy")
        # Tentative order: T3 before T2 (opposite of definitive order).
        harness.opt_deliver(t3)
        harness.opt_deliver(t2)
        harness.to_deliver(t2, index=0)
        harness.to_deliver(t3, index=1)
        harness.kernel.run_until_idle()
        assert t2.reorder_aborts == 0
        assert t3.reorder_aborts == 0
        assert set(harness.committed_ids()) == {2, 3}

    def test_to_delivery_after_commit_rejected(self):
        harness = SchedulerHarness(duration=0.001)
        transaction = harness.transaction(1)
        harness.opt_deliver(transaction)
        harness.to_deliver(transaction, index=0)
        harness.kernel.run_until_idle()
        with pytest.raises(SchedulerError):
            harness.scheduler.on_to_deliver(1, 5)

    def test_check_invariants_passes_in_normal_operation(self):
        harness = SchedulerHarness(duration=0.010)
        transactions = [harness.transaction(i) for i in range(5)]
        for transaction in transactions:
            harness.opt_deliver(transaction)
        for index, transaction in enumerate(reversed(transactions)):
            harness.to_deliver(transaction, index=index)
            harness.scheduler.check_invariants()
        harness.kernel.run_until_idle()
        harness.scheduler.check_invariants()


class TestTheorems:
    def test_starvation_freedom_every_to_delivered_transaction_commits(self):
        """Theorem 4.1: every TO-delivered transaction eventually commits,
        even when the definitive order is the reverse of the tentative one."""
        harness = SchedulerHarness(duration=0.004)
        transactions = [harness.transaction(i) for i in range(8)]
        for transaction in transactions:
            harness.opt_deliver(transaction)
        # Definitive order is the exact reverse of the tentative order.
        for index, transaction in enumerate(reversed(transactions)):
            harness.to_deliver(transaction, index=index)
        harness.kernel.run_until_idle()
        assert set(harness.committed_ids()) == {i for i in range(8)}

    def test_conflicting_transactions_commit_in_definitive_order(self):
        """Lemma 4.1: same-class transactions commit in TO-delivery order."""
        harness = SchedulerHarness(duration=0.003)
        transactions = [harness.transaction(i) for i in range(6)]
        for transaction in transactions:
            harness.opt_deliver(transaction)
        definitive = [3, 0, 5, 1, 4, 2]
        for position, transaction_index in enumerate(definitive):
            harness.to_deliver(transactions[transaction_index], index=position)
        harness.kernel.run_until_idle()
        assert harness.committed_ids() == [i for i in definitive]

    @given(
        count=st.integers(min_value=1, max_value=7),
        order_seed=st.integers(min_value=0, max_value=1000),
        class_count=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_commit_order_follows_definitive_order_per_class(
        self, count, order_seed, class_count
    ):
        """Property: for any random definitive order and class assignment,
        every transaction commits and same-class commits follow that order."""
        import random

        rng = random.Random(order_seed)
        harness = SchedulerHarness(duration=0.002, seed=order_seed)
        transactions = [
            harness.transaction(i, conflict_class=f"C{rng.randrange(class_count)}")
            for i in range(count)
        ]
        for transaction in transactions:
            harness.opt_deliver(transaction)
        definitive = list(range(count))
        rng.shuffle(definitive)
        for position, transaction_index in enumerate(definitive):
            harness.to_deliver(transactions[transaction_index], index=position)
        harness.kernel.run_until_idle()
        harness.scheduler.check_invariants()
        assert len(harness.committed) == count
        definitive_ids = [transactions[i].transaction_id for i in definitive]
        for class_id in {t.conflict_class for t in transactions}:
            committed_of_class = [
                t.transaction_id for t in harness.committed if t.conflict_class == class_id
            ]
            expected = [
                txn_id
                for txn_id in definitive_ids
                if txn_id in set(committed_of_class)
            ]
            assert committed_of_class == expected
