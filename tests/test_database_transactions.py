"""Tests for transactions, stored procedures and conflict-class queues."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database import (
    ClassQueue,
    ConflictClassMap,
    DeliveryState,
    ExecutionState,
    ProcedureRegistry,
    StoredProcedure,
    Transaction,
    TransactionContext,
    TransactionOutcome,
    TransactionRequest,
    TRANSACTION_IDS,
    transaction_name,
)
from repro.database.storage import MultiVersionStore
from repro.errors import (
    ConflictClassError,
    DatabaseError,
    TransactionError,
    UnknownProcedureError,
)
from repro.simulation import SimulationKernel
from repro.simulation.randomness import RandomSource


def make_transaction(txn_id="T1", conflict_class="Cx", site="N1"):
    request = TransactionRequest(
        transaction_id=txn_id,
        procedure_name="proc",
        parameters={},
        conflict_class=conflict_class,
        origin_site=site,
        submitted_at=0.0,
    )
    return Transaction(request=request, site_id=site)


class TestTransactionStates:
    def test_initial_state_matches_paper_labels(self):
        transaction = make_transaction()
        assert transaction.execution_state is ExecutionState.ACTIVE
        assert transaction.delivery_state is DeliveryState.PENDING
        assert transaction.state_label() == "T1[a,p]"

    def test_opt_delivery_then_to_delivery(self):
        transaction = make_transaction()
        transaction.mark_opt_delivered(1.0)
        assert transaction.is_pending
        transaction.mark_committable(2.0)
        assert transaction.state_label() == "T1[a,c]"

    def test_double_opt_delivery_rejected(self):
        transaction = make_transaction()
        transaction.mark_opt_delivered(1.0)
        with pytest.raises(TransactionError):
            transaction.mark_opt_delivered(2.0)

    def test_execution_lifecycle(self):
        transaction = make_transaction()
        transaction.mark_opt_delivered(1.0)
        transaction.begin_execution(1.5)
        assert transaction.executing
        assert transaction.execution_attempts == 1
        transaction.complete_execution(2.0, result=42)
        assert transaction.is_executed
        assert transaction.result == 42
        assert transaction.state_label() == "T1[e,p]"

    def test_cannot_complete_without_starting(self):
        transaction = make_transaction()
        with pytest.raises(TransactionError):
            transaction.complete_execution(1.0, result=None)

    def test_cannot_start_twice_concurrently(self):
        transaction = make_transaction()
        transaction.begin_execution(1.0)
        with pytest.raises(TransactionError):
            transaction.begin_execution(1.1)

    def test_commit_requires_executed_and_committable(self):
        transaction = make_transaction()
        transaction.mark_opt_delivered(0.5)
        transaction.begin_execution(1.0)
        transaction.complete_execution(2.0, result=None)
        with pytest.raises(TransactionError):
            transaction.mark_committed(3.0)  # not TO-delivered yet
        transaction.mark_committable(2.5)
        transaction.mark_committed(3.0)
        assert transaction.is_committed
        assert transaction.committed_at == 3.0

    def test_commit_twice_rejected(self):
        transaction = make_transaction()
        transaction.mark_opt_delivered(0.5)
        transaction.begin_execution(1.0)
        transaction.complete_execution(2.0, None)
        transaction.mark_committable(2.5)
        transaction.mark_committed(3.0)
        with pytest.raises(TransactionError):
            transaction.mark_committed(4.0)

    def test_abort_for_reordering_resets_execution(self):
        transaction = make_transaction()
        transaction.mark_opt_delivered(0.5)
        transaction.begin_execution(1.0)
        transaction.complete_execution(2.0, result=7)
        transaction.workspace = {"x": 1}
        transaction.abort_for_reordering()
        assert transaction.execution_state is ExecutionState.ACTIVE
        assert transaction.workspace == {}
        assert transaction.result is None
        assert transaction.reorder_aborts == 1
        assert transaction.outcome is TransactionOutcome.UNDECIDED
        # It can be executed again afterwards.
        transaction.begin_execution(3.0)
        assert transaction.execution_attempts == 2

    def test_abort_for_reordering_forgets_reads_and_completion(self):
        transaction = make_transaction()
        transaction.mark_opt_delivered(0.5)
        transaction.begin_execution(1.0)
        transaction.reads = {"x": -1, "y": 0}
        transaction.complete_execution(2.0, result=None)
        transaction.abort_for_reordering()
        assert transaction.reads == {}
        assert transaction.executed_at is None
        assert not transaction.is_executed

    def test_aborting_committed_transaction_rejected(self):
        transaction = make_transaction()
        transaction.mark_opt_delivered(0.5)
        transaction.begin_execution(1.0)
        transaction.complete_execution(2.0, None)
        transaction.mark_committable(2.5)
        transaction.mark_committed(3.0)
        with pytest.raises(TransactionError):
            transaction.abort_for_reordering()

    def test_transaction_ids_are_unique(self):
        kernel = SimulationKernel()
        ids = {kernel.draw_id(TRANSACTION_IDS, "N1") for _ in range(200)}
        assert len(ids) == 200
        assert transaction_name(kernel, 200) == "T:N1:200"


class TestTransactionContext:
    def build_store(self):
        store = MultiVersionStore()
        store.load_many({"acct:1": 100, "acct:2": 50})
        return store

    def test_read_your_own_writes(self):
        context = TransactionContext(self.build_store())
        context.write("acct:1", 120)
        assert context.read("acct:1") == 120

    def test_reads_record_the_version_each_read_returned(self):
        store = self.build_store()
        store.install("acct:2", 60, created_index=4, created_by="T4")
        context = TransactionContext(store)
        context.read("acct:1")
        context.read("acct:2")
        context.read_or_default("missing", default=0)
        assert context.reads == {
            "acct:1": MultiVersionStore.INITIAL_INDEX,
            "acct:2": 4,
            "missing": MultiVersionStore.INITIAL_INDEX,
        }

    def test_reads_of_own_writes_and_snapshots_record_no_version(self):
        store = self.build_store()
        context = TransactionContext(store)
        context.write("acct:1", 120)
        assert context.read("acct:1") == 120
        assert context.reads == {}
        snapshot = TransactionContext(store, snapshot_index=0.5, read_only=True)
        assert snapshot.read("acct:2") == 50
        assert snapshot.reads == {}

    def test_read_or_default(self):
        context = TransactionContext(self.build_store())
        assert context.read_or_default("missing", default=7) == 7

    def test_increment(self):
        context = TransactionContext(self.build_store())
        assert context.increment("acct:2") == 51
        assert context.workspace == {"acct:2": 51}

    def test_increment_non_numeric_rejected(self):
        store = self.build_store()
        store.load("name", "alice")
        context = TransactionContext(store)
        with pytest.raises(DatabaseError):
            context.increment("name")

    def test_read_only_context_blocks_writes(self):
        context = TransactionContext(self.build_store(), read_only=True)
        with pytest.raises(DatabaseError):
            context.write("acct:1", 0)

    def test_snapshot_context_reads_bounded_versions(self):
        store = self.build_store()
        store.install("acct:1", 999, created_index=5, created_by="T5")
        context = TransactionContext(store, snapshot_index=2.5)
        assert context.read("acct:1") == 100

    def test_writes_stay_in_the_workspace_until_installed(self):
        # Deferred update: dropping the workspace is the whole undo (CC8).
        store = self.build_store()
        context = TransactionContext(store)
        context.write("acct:1", 0)
        context.increment("acct:2")
        assert store.read_latest("acct:1")[0] == 100
        assert store.read_latest("acct:2")[0] == 50
        assert store.version_count("acct:1") == store.version_count("acct:2") == 1
        assert TransactionContext(store).read("acct:1") == 100

    def test_exists(self):
        context = TransactionContext(self.build_store())
        assert context.exists("acct:1")
        assert not context.exists("nope")
        context.write("nope", 1)
        assert context.exists("nope")


class TestStoredProcedures:
    def test_registry_register_and_get(self):
        registry = ProcedureRegistry()
        procedure = StoredProcedure(name="p", body=lambda ctx, params: None, conflict_class="C")
        registry.register(procedure)
        assert registry.get("p") is procedure
        assert "p" in registry
        assert registry.names() == ["p"]
        assert len(registry) == 1

    def test_duplicate_names_rejected(self):
        registry = ProcedureRegistry()
        registry.register(StoredProcedure(name="p", body=lambda c, p: None, conflict_class="C"))
        with pytest.raises(DatabaseError):
            registry.register(
                StoredProcedure(name="p", body=lambda c, p: None, conflict_class="C")
            )

    def test_unknown_procedure_raises(self):
        with pytest.raises(UnknownProcedureError):
            ProcedureRegistry().get("nope")

    def test_decorator_registration(self):
        registry = ProcedureRegistry()

        @registry.procedure("transfer", conflict_class="C_accounts", duration=0.005)
        def transfer(ctx, params):
            return "done"

        procedure = registry.get("transfer")
        assert procedure.conflict_class == "C_accounts"
        assert procedure.body(None, {}) == "done"

    def test_conflict_class_callable_resolution(self):
        procedure = StoredProcedure(
            name="p",
            body=lambda c, p: None,
            conflict_class=lambda params: f"C{params['k']}",
        )
        assert procedure.resolve_conflict_class({"k": 3}) == "C3"

    def test_update_without_class_rejected(self):
        procedure = StoredProcedure(name="p", body=lambda c, p: None, conflict_class=None)
        with pytest.raises(DatabaseError):
            procedure.resolve_conflict_class({})

    def test_query_without_class_gets_query_class(self):
        procedure = StoredProcedure(
            name="q", body=lambda c, p: None, conflict_class=None, is_query=True
        )
        assert procedure.resolve_conflict_class({}) == "__query__"

    def test_duration_constant_and_callable(self):
        stream = RandomSource(1).stream("d")
        constant = StoredProcedure(name="p", body=lambda c, p: None, conflict_class="C", duration=0.01)
        assert constant.sample_duration({}, stream) == pytest.approx(0.01)
        sampled = StoredProcedure(
            name="p2",
            body=lambda c, p: None,
            conflict_class="C",
            duration=lambda params, rng: rng.uniform(0.001, 0.002),
        )
        assert 0.001 <= sampled.sample_duration({}, stream) <= 0.002

    def test_negative_duration_clamped_to_zero(self):
        stream = RandomSource(1).stream("d2")
        procedure = StoredProcedure(
            name="p", body=lambda c, p: None, conflict_class="C", duration=-1.0
        )
        assert procedure.sample_duration({}, stream) == 0.0


class TestConflictClassMap:
    def test_define_and_lookup(self):
        mapping = ConflictClassMap()
        mapping.define("C_accounts", key_prefixes=("acct:",))
        mapping.define("C_orders", key_prefixes=("order:",))
        assert mapping.class_of_key("acct:7") == "C_accounts"
        assert mapping.class_of_key("order:1") == "C_orders"
        assert mapping.class_of_key("other") is None
        assert mapping.class_ids() == ["C_accounts", "C_orders"]
        assert "C_accounts" in mapping
        assert len(mapping) == 2

    def test_duplicate_definition_rejected(self):
        mapping = ConflictClassMap()
        mapping.define("C")
        with pytest.raises(ConflictClassError):
            mapping.define("C")

    def test_unknown_class_rejected(self):
        with pytest.raises(ConflictClassError):
            ConflictClassMap().get("missing")

    def test_key_prefixes_normalised_to_string_tuple(self):
        mapping = ConflictClassMap()
        defined = mapping.define("C_accounts", key_prefixes=["acct:", "iban:"])
        assert defined.key_prefixes == ("acct:", "iban:")
        assert isinstance(defined.key_prefixes, tuple)

    def test_identical_prefix_in_two_classes_rejected(self):
        mapping = ConflictClassMap()
        mapping.define("C_a", key_prefixes=("shared:",))
        with pytest.raises(ConflictClassError):
            mapping.define("C_b", key_prefixes=("shared:",))

    def test_prefix_extending_existing_prefix_rejected(self):
        mapping = ConflictClassMap()
        mapping.define("C_a", key_prefixes=("acct:",))
        # "acct:eu:" keys would belong to both classes.
        with pytest.raises(ConflictClassError):
            mapping.define("C_b", key_prefixes=("acct:eu:",))

    def test_prefix_shadowing_existing_prefix_rejected(self):
        mapping = ConflictClassMap()
        mapping.define("C_a", key_prefixes=("acct:eu:",))
        # "acct:" swallows every key of C_a's partition.
        with pytest.raises(ConflictClassError):
            mapping.define("C_b", key_prefixes=("acct:",))

    def test_rejected_definition_leaves_map_unchanged(self):
        mapping = ConflictClassMap()
        mapping.define("C_a", key_prefixes=("a:",))
        with pytest.raises(ConflictClassError):
            mapping.define("C_b", key_prefixes=("b:", "a:extended"))
        assert "C_b" not in mapping
        assert mapping.class_of_key("b:1") is None

    def test_disjoint_sibling_prefixes_allowed(self):
        mapping = ConflictClassMap()
        mapping.define("C1", key_prefixes=("part1:",))
        # "part10:" is not an extension of "part1:" (the colon disambiguates).
        mapping.define("C10", key_prefixes=("part10:",))
        assert mapping.class_of_key("part1:obj0") == "C1"
        assert mapping.class_of_key("part10:obj0") == "C10"

    def test_key_resolved_before_its_class_exists_resolves_after_define(self):
        mapping = ConflictClassMap()
        mapping.define("C_a", key_prefixes=("a:",))
        assert mapping.class_of_key("b:1") is None
        assert mapping.class_of_key("a:1") == "C_a"
        mapping.define("C_b", key_prefixes=("b:",))
        assert mapping.class_of_key("b:1") == "C_b"
        assert mapping.class_of_key("a:1") == "C_a"

    @pytest.mark.parametrize("class_count", [8, 64])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_memoised_lookup_matches_a_linear_scan(self, class_count, data):
        mapping = ConflictClassMap()
        for index in range(class_count):
            mapping.define(f"C{index}", key_prefixes=(f"part{index}:", f"alt{index}/"))

        def scan(key):
            owners = [
                class_id for class_id in mapping.class_ids()
                if any(key.startswith(prefix) for prefix in mapping.get(class_id).key_prefixes)
            ]
            assert len(owners) <= 1
            return owners[0] if owners else None

        prefix = st.sampled_from(["part", "alt", "other", ""])
        number = st.integers(min_value=0, max_value=class_count + 3)
        separator = st.sampled_from([":", "/", "", "-"])
        suffix = st.text(alphabet="obj0123:/", max_size=6)
        keys = data.draw(st.lists(
            st.builds(lambda p, n, s, t: f"{p}{n}{s}{t}", prefix, number, separator, suffix),
            min_size=1, max_size=40,
        ))
        for key in keys + keys:  # the second pass answers from the memo
            assert mapping.class_of_key(key) == scan(key)


class TestClassQueue:
    def test_append_and_fifo_order(self):
        queue = ClassQueue("Cx")
        first, second = make_transaction("T1"), make_transaction("T2")
        queue.append(first)
        queue.append(second)
        assert queue.first() is first
        assert len(queue) == 2
        assert queue.position_of(second) == 1
        assert [entry.transaction_id for entry in queue] == ["T1", "T2"]

    def test_wrong_class_rejected(self):
        queue = ClassQueue("Cx")
        other = make_transaction("T1", conflict_class="Cy")
        with pytest.raises(ConflictClassError):
            queue.append(other)

    def test_double_append_rejected(self):
        queue = ClassQueue("Cx")
        transaction = make_transaction("T1")
        queue.append(transaction)
        with pytest.raises(ConflictClassError):
            queue.append(transaction)

    def test_remove_only_head(self):
        queue = ClassQueue("Cx")
        first, second = make_transaction("T1"), make_transaction("T2")
        queue.append(first)
        queue.append(second)
        with pytest.raises(ConflictClassError):
            queue.remove(second)
        queue.remove(first)
        assert queue.first() is second

    def test_find_by_id(self):
        queue = ClassQueue("Cx")
        transaction = make_transaction("T1")
        queue.append(transaction)
        assert queue.find("T1") is transaction
        assert queue.find("T9") is None

    def test_reschedule_moves_committable_before_pending(self):
        """The paper's first CC10 example: T3 confirmed before T2."""
        queue = ClassQueue("Cx")
        t1, t2, t3 = (make_transaction(f"T{i}") for i in (1, 2, 3))
        for transaction in (t1, t2, t3):
            transaction.mark_opt_delivered(0.0)
            queue.append(transaction)
        t1.mark_committable(1.0)
        t3.mark_committable(2.0)
        queue.reschedule_before_pending(t3)
        assert [entry.transaction_id for entry in queue] == ["T1", "T3", "T2"]
        assert queue.committable_before_pending()

    def test_reschedule_to_front_when_all_pending(self):
        """The paper's second example: T3 confirmed while T1, T2 still pending."""
        queue = ClassQueue("Cx")
        t1, t2, t3 = (make_transaction(f"T{i}") for i in (1, 2, 3))
        for transaction in (t1, t2, t3):
            transaction.mark_opt_delivered(0.0)
            queue.append(transaction)
        t3.mark_committable(1.0)
        position = queue.reschedule_before_pending(t3)
        assert position == 0
        assert [entry.transaction_id for entry in queue] == ["T3", "T1", "T2"]

    def test_reschedule_unknown_transaction_rejected(self):
        queue = ClassQueue("Cx")
        with pytest.raises(ConflictClassError):
            queue.reschedule_before_pending(make_transaction("T9"))

    def test_field_equal_records_are_distinct_entries(self):
        queue = ClassQueue("Cx")
        original, twin = make_transaction("T1"), make_transaction("T1")
        assert original is not twin and original != twin
        queue.append(original)
        assert twin not in queue
        assert original in queue
        queue.append(twin)
        assert len(queue) == 2
        with pytest.raises(ConflictClassError):
            queue.append(original)
        assert queue.position_of(twin) == 1
        with pytest.raises(ConflictClassError):
            queue.remove(twin)
        queue.remove(original)
        assert queue.first() is twin

    def test_position_and_reschedule_act_on_the_identical_record(self):
        queue = ClassQueue("Cx")
        first, second, twin = make_transaction("T1"), make_transaction("T2"), make_transaction("T2")
        for transaction in (first, second):
            transaction.mark_opt_delivered(0.0)
            queue.append(transaction)
        with pytest.raises(ConflictClassError):
            queue.position_of(twin)
        twin.mark_committable(1.0)
        with pytest.raises(ConflictClassError):
            queue.reschedule_before_pending(twin)
        assert list(queue) == [first, second]
        second.mark_committable(1.0)
        assert queue.reschedule_before_pending(second) == 0
        assert list(queue)[0] is second and list(queue)[1] is first
        assert queue.total_reorderings == 1

    def test_counters(self):
        queue = ClassQueue("Cx")
        t1 = make_transaction("T1")
        t1.mark_opt_delivered(0.0)
        queue.append(t1)
        queue.remove(t1)
        assert queue.total_appended == 1
        assert queue.total_committed == 1


class TestSnapshotFrontierRegression:
    """Out-of-order commits across conflict classes must never expose a
    non-consecutive committed prefix to queries (regression for the
    consecutive-commit-frontier fix in :class:`SnapshotManager`)."""

    def build_store(self):
        store = MultiVersionStore()
        store.load_many({"a:0": 0, "b:0": 0})
        return store

    def test_frontier_waits_for_gap_to_fill(self):
        from repro.database.snapshots import SnapshotManager

        store = self.build_store()
        manager = SnapshotManager(store)
        # Transaction 1 (class b) finishes before transaction 0 (class a):
        # commits of different classes may complete out of definitive order.
        store.install("b:0", 11, created_index=1, created_by="T1")
        manager.advance(1)
        assert manager.last_processed_index == MultiVersionStore.INITIAL_INDEX
        assert manager.next_query_index() == MultiVersionStore.INITIAL_INDEX + 0.5
        # A query taken now must not see T1's write: index 1 is not part of
        # any gap-free committed prefix yet.
        snapshot = manager.snapshot()
        assert snapshot.read("b:0") == 0
        # Once the gap fills, the frontier jumps over both commits at once.
        store.install("a:0", 7, created_index=0, created_by="T0")
        manager.advance(0)
        assert manager.last_processed_index == 1
        snapshot = manager.snapshot()
        assert snapshot.read("a:0") == 7
        assert snapshot.read("b:0") == 11

    def test_frontier_never_exposes_non_consecutive_prefix(self):
        from repro.database.snapshots import SnapshotManager

        store = self.build_store()
        manager = SnapshotManager(store)
        # Commit definitive indices in a scrambled order; after each step the
        # frontier must equal the length of the gap-free prefix committed so
        # far, never the maximum committed index.
        scrambled = [2, 0, 4, 1, 3]
        committed = set()
        for index in scrambled:
            # Each class commits in order on its own keys; the scramble is
            # across classes, so drive the frontier directly.
            manager.advance(index)
            committed.add(index)
            frontier = manager.last_processed_index
            expected = -1
            while expected + 1 in committed:
                expected += 1
            assert frontier == expected
            # Every index in the exposed prefix has committed.
            assert all(i in committed for i in range(frontier + 1))

    def test_replaying_an_old_index_is_idempotent(self):
        from repro.database.snapshots import SnapshotManager

        store = self.build_store()
        manager = SnapshotManager(store)
        store.install("a:0", 1, created_index=0, created_by="T0")
        manager.advance(0)
        assert manager.last_processed_index == 0
        manager.advance(0)  # recovery replay
        assert manager.last_processed_index == 0
