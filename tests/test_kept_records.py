"""What a run keeps per message, request or query carries no ``__dict__``.

Every site keeps one broadcast record per message and one submission record
per request for the whole run; the query engine and the router keep one
record per query and per routed update, and the metrics keep every latency
sample.  The mutable records are classes with ``__slots__``, the frozen
request is a named tuple, and the samples are ``array('d')`` doubles, so a
kept record costs its fields and nothing more.
"""

from array import array

import pytest

from repro import ClusterConfig, ProcedureRegistry, ReplicatedDatabase
from repro.broadcast.interfaces import BroadcastMessage
from repro.broadcast.optimistic import (
    OPTIMISTIC_DATA_KIND,
    OptimisticAtomicBroadcast,
    OptimisticData,
)
from repro.core.execution import QueryExecution
from repro.core.replica import SubmittedRequest
from repro.database.transaction import TransactionRequest
from repro.metrics import MetricsCollector
from repro.network import ConstantLatency, NetworkTransport
from repro.network.dispatcher import SiteDispatcher
from repro.sharding.router import RoutedUpdate, ShardedQueryExecution, ShardSubQuery
from repro.simulation import SimulationKernel

REQUEST = TransactionRequest(
    transaction_id="T:N1:1",
    procedure_name="add",
    parameters={"slot": 0},
    conflict_class="C0",
    origin_site="N1",
)

KEPT = [
    BroadcastMessage(message_id="m:N1:1", origin="N1", payload=REQUEST),
    SubmittedRequest(request=REQUEST, submitted_at=0.0),
    QueryExecution(query_id="Q:N1:1", procedure_name="scan", query_index=0.5, started_at=0.0),
    RoutedUpdate(
        transaction_id="T:N1:1", conflict_class="C0", shard_id="S0", site_id="N1", routed_at=0.0
    ),
    ShardSubQuery(shard_id="S0", site_id="N1", classes=["C0"], parameters={}, execution=None),
    ShardedQueryExecution(query_id="SQ:1", procedure_name="scan", submitted_at=0.0),
    REQUEST,
]


@pytest.mark.parametrize("record", KEPT, ids=[type(record).__name__ for record in KEPT])
def test_kept_records_have_no_instance_dict(record):
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.extra = "new"
    # Every slot is set by the constructor: reading one never fails.
    for name in getattr(type(record), "__slots__", ()):
        getattr(record, name)


def test_latency_samples_are_a_double_array():
    samples = MetricsCollector().samples["x"]
    assert isinstance(samples, array) and samples.typecode == "d"


def test_request_defaults_and_immutability():
    assert REQUEST.submitted_at == 0.0 and REQUEST.is_query is False
    with pytest.raises(AttributeError):
        REQUEST.conflict_class = "C1"


def _registry():
    registry = ProcedureRegistry()

    @registry.procedure("add", conflict_class=lambda p: f"C{p['slot']}")
    def add(ctx, params):
        key = f"slot:{params['slot']}"
        ctx.write(key, ctx.read(key) + 1)

    return registry


def test_a_plain_tuple_equal_to_a_request_is_not_executed():
    # A named tuple equals the plain tuple of its values; the replica must
    # still tell them apart by type.
    cluster = ReplicatedDatabase(
        ClusterConfig(site_count=2, seed=1), _registry(), initial_data={"slot:0": 0}
    )
    endpoint = cluster.replica("N1").broadcast
    assert tuple(REQUEST) == REQUEST
    endpoint.broadcast(tuple(REQUEST))
    cluster.run_until_idle()
    assert cluster.committed_counts() == {"N1": 0, "N2": 0}
    endpoint.broadcast(REQUEST)
    cluster.run_until_idle()
    assert cluster.committed_counts() == {"N1": 1, "N2": 1}


def test_a_promoted_coordinator_orders_unconfirmed_messages_in_receipt_order():
    # The coordinator N2 never speaks, so nothing N1 receives is confirmed
    # until N1 itself is promoted.
    kernel = SimulationKernel(seed=0)
    transport = NetworkTransport(kernel, ConstantLatency(0.001))
    endpoint = OptimisticAtomicBroadcast(
        kernel, transport, SiteDispatcher(transport, "N1"), "N1", coordinator_site="N2"
    )
    received = ["m:N3:2", "m:N3:10", "m:N3:1"]
    for message_id in received:
        data = OptimisticData(message_id=message_id, origin="N3", payload=None, broadcast_at=0.0)
        transport.unicast("N1", "N1", data, kind=OPTIMISTIC_DATA_KIND)
        kernel.run_until_idle()
    assert endpoint.opt_delivery_log == received
    assert [endpoint.message(m).local_position for m in received] == [0, 1, 2]
    assert endpoint.to_delivery_log == []
    endpoint.set_coordinator("N1")
    kernel.run_until_idle()
    assert endpoint.to_delivery_log == received
