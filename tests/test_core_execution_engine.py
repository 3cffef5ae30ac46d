"""Tests for the execution engine and the query engine."""

import pytest

from repro.core.execution import ExecutionEngine, QueryEngine
from repro.database import (
    MultiVersionStore,
    ProcedureRegistry,
    StoredProcedure,
    Transaction,
    TransactionRequest,
)
from repro.errors import SchedulerError
from repro.simulation import SimulationKernel


def build_engine(duration=0.01):
    kernel = SimulationKernel(seed=0)
    store = MultiVersionStore()
    store.load_many({"x": 10, "y": 20})
    registry = ProcedureRegistry()

    def add_body(ctx, params):
        value = ctx.read(params["key"])
        ctx.write(params["key"], value + params.get("amount", 1))
        return value + params.get("amount", 1)

    registry.register(
        StoredProcedure(name="add", body=add_body, conflict_class="C", duration=duration)
    )
    registry.register(
        StoredProcedure(
            name="slow", body=add_body, conflict_class="C", duration=duration * 10
        )
    )
    engine = ExecutionEngine(kernel, store, registry, "N1")
    return kernel, store, registry, engine


def make_transaction(txn_id=1, procedure="add", key="x", conflict_class="C"):
    request = TransactionRequest(
        transaction_id=txn_id,
        procedure_name=procedure,
        parameters={"key": key, "amount": 1},
        conflict_class=conflict_class,
        origin_site="N1",
        submitted_at=0.0,
    )
    return Transaction(request=request, site_id="N1")


class TestExecutionEngine:
    def test_execution_completes_after_duration_with_workspace(self):
        kernel, store, registry, engine = build_engine(duration=0.01)
        transaction = make_transaction()
        completed = []
        engine.submit(transaction, completed.append)
        kernel.run_until_idle()
        assert completed == [transaction]
        assert transaction.is_executed
        assert transaction.workspace == {"x": 11}
        assert transaction.reads == {"x": MultiVersionStore.INITIAL_INDEX}
        assert transaction.result == 11
        assert transaction.executed_at == pytest.approx(0.01)
        # The store itself is untouched until commit.
        assert store.read_latest("x")[0] == 10

    def test_cancel_in_flight_execution(self):
        kernel, store, registry, engine = build_engine(duration=0.05)
        transaction = make_transaction()
        completed = []
        engine.submit(transaction, completed.append)
        kernel.run(until=0.01)
        assert engine.is_submitted(1)
        assert engine.cancel(transaction)
        kernel.run_until_idle()
        assert completed == []
        assert engine.executions_cancelled == 1
        assert not engine.is_submitted(1)

    def test_cancel_unknown_transaction_returns_false(self):
        kernel, store, registry, engine = build_engine()
        assert not engine.cancel(make_transaction(9))

    def test_double_submit_rejected(self):
        kernel, store, registry, engine = build_engine(duration=0.05)
        transaction = make_transaction()
        engine.submit(transaction, lambda txn: None)
        with pytest.raises(SchedulerError):
            engine.submit(transaction, lambda txn: None)

    def test_executions_run_concurrently(self):
        # The engine bounds nothing: an execution's time does not depend on
        # how many others are running (the paper's system model).
        kernel, store, registry, engine = build_engine(duration=0.01)
        transactions = [
            make_transaction(index, key="xy"[index % 2]) for index in range(4)
        ]
        for transaction in transactions:
            engine.submit(transaction, lambda txn: None)
        assert all(engine.is_submitted(txn.transaction_id) for txn in transactions)
        kernel.run_until_idle()
        assert kernel.now() == pytest.approx(0.01)
        assert [txn.executed_at for txn in transactions] == [pytest.approx(0.01)] * 4
        assert engine.executions_completed == 4

    def test_cancel_one_of_two_running_executions(self):
        kernel, store, registry, engine = build_engine(duration=0.01)
        first = make_transaction(1)
        second = make_transaction(2, key="y")
        completed = []
        engine.submit(first, completed.append)
        engine.submit(second, completed.append)
        assert engine.cancel(second)
        kernel.run_until_idle()
        assert completed == [first]
        assert (engine.executions_completed, engine.executions_cancelled) == (1, 1)

    def test_crash_reset_kills_every_running_execution(self):
        kernel, store, registry, engine = build_engine(duration=0.01)
        completed = []
        for index in range(3):
            engine.submit(make_transaction(index), completed.append)
        assert engine.crash_reset() == 3
        kernel.run_until_idle()
        assert completed == []
        assert not any(engine.is_submitted(index) for index in range(3))
        assert engine.executions_cancelled == 3


class TestQueryEngine:
    def build(self):
        kernel = SimulationKernel(seed=0)
        store = MultiVersionStore()
        store.load_many({"x": 10, "y": 20})
        registry = ProcedureRegistry()
        registry.register(
            StoredProcedure(
                name="sum",
                body=lambda ctx, params: ctx.read("x") + ctx.read("y"),
                is_query=True,
                duration=0.005,
            )
        )
        registry.register(
            StoredProcedure(name="upd", body=lambda ctx, params: None, conflict_class="C")
        )
        return kernel, store, registry, QueryEngine(kernel, store, registry, "N1")

    def test_query_runs_on_snapshot_and_completes_after_duration(self):
        kernel, store, registry, engine = self.build()
        results = []
        execution = engine.submit(registry.get("sum"), {}, query_index=-0.5, on_complete=results.append)
        # A concurrent committed write must not be visible to the running query.
        store.install("x", 999, created_index=0, created_by=0)
        kernel.run_until_idle()
        assert results == [execution]
        assert execution.result == 30
        assert execution.latency == pytest.approx(0.005)

    def test_update_procedure_rejected(self):
        kernel, store, registry, engine = self.build()
        with pytest.raises(SchedulerError):
            engine.submit(registry.get("upd"), {}, query_index=0.5, on_complete=lambda e: None)

    def test_query_ids_are_unique_per_site(self):
        kernel, store, registry, engine = self.build()
        first = engine.submit(registry.get("sum"), {}, -0.5, lambda e: None)
        second = engine.submit(registry.get("sum"), {}, -0.5, lambda e: None)
        assert first.query_id != second.query_id
