"""Every record outside configuration that is never rebound is a named tuple.

Envelopes, broadcast wire payloads, object versions and history entries are
built once or more per commit; the trace, fault, plan and report records
are built rarely but declared in every process.  All of them are
``typing.NamedTuple`` classes rather than dataclasses, so importing
``repro`` generates no methods for them.  These tests pin what callers rely
on: no attribute assignment, keyword construction with defaults, value
equality within one type, and protocol ``isinstance`` checks that still
tell a record from a plain tuple holding the same values.
"""

import pytest

from repro import BROADCAST_LAZY, ClusterConfig, ProcedureRegistry, ReplicatedDatabase
from repro.broadcast.batching import Batch, BatchingConfig, BatchingEndpoint, BatchMember
from repro.broadcast.interfaces import NoOpFill
from repro.broadcast.optimistic import (
    OPTIMISTIC_ANNOUNCE_KIND,
    OPTIMISTIC_DATA_KIND,
    OPTIMISTIC_ORDER_KIND,
    OPTIMISTIC_SOLICIT_KIND,
    DataSolicit,
    OptimisticAnnounce,
    OptimisticAtomicBroadcast,
    OptimisticData,
    OptimisticFill,
    OptimisticOrder,
)
from repro.broadcast.spontaneous import OrderAgreementReport, ProbeMessage
from repro.chaos.orchestrator import InjectedFault
from repro.chaos.plan import FaultEvent, FaultTarget
from repro.chaos.scenarios import ChaosRunResult
from repro.core.execution import _PendingQuery, _RunningExecution
from repro.core.replica import LAZY_WRITES_KIND, LazyWriteSet
from repro.database import TRANSACTION_IDS, CommittedTransaction, ObjectVersion
from repro.database.conflict import ConflictClass
from repro.database.procedures import StoredProcedure
from repro.database.snapshots import QuerySnapshot
from repro.failure.crash import CrashEvent
from repro.failure.detector import HEARTBEAT_KIND, FailureDetector, Heartbeat
from repro.failure.suspicion import FailureDetectionConfig
from repro.metrics.stats import Summary
from repro.network import ConstantLatency, NetworkTransport
from repro.network.dispatcher import SiteDispatcher
from repro.network.latency import LinkProfile
from repro.network.message import DeliveryRecord, Envelope
from repro.observability.registry import DerivedMetrics, _Entry
from repro.observability.summary import LoadSummary, RunSummary
from repro.observability.trace import TraceEvent
from repro.simulation import SimulationKernel
from repro.verification.sharded import ClusterVerificationReport
from repro.workloads.arrivals import OpenLoopOperation, PoissonArrivals
from repro.workloads.generator import GeneratedOperation


def _required(record_type, **values):
    """``values``, plus a placeholder for every other field without a default."""
    return {
        name: values.get(name, f"<{name}>")
        for name in record_type._fields
        if name not in record_type._field_defaults
    }


#: (record type, required fields, the defaults of every other field)
RECORDS = [
    (
        Envelope,
        {"envelope_id": "e1", "sender": "N1", "payload": "p"},
        {"kind": "data", "sent_at": 0.0},
    ),
    (
        OptimisticData,
        {"message_id": 1, "payload": "p"},
        {},
    ),
    (OptimisticOrder, {"message_id": 1, "position": 3}, {}),
    (
        ObjectVersion,
        {"key": "x", "value": 1, "created_index": 0, "created_by": 1},
        {"created_at": 0.0},
    ),
    (
        CommittedTransaction,
        {"transaction_id": 1, "conflict_class": "C0", "global_index": 0, "committed_at": 0.1},
        {"write_keys": (), "read_keys": (), "message_id": None},
    ),
    (NoOpFill, {"position": 3}, {}),
    (BatchMember, _required(BatchMember), {}),
    (Batch, {"origin": "N1", "members": ()}, {}),
    (LazyWriteSet, _required(LazyWriteSet), {}),
    (OptimisticAnnounce, {"message_id": 1, "site_id": "N2", "local_position": 0}, {}),
    (DataSolicit, {"message_id": 1, "position": 0, "requester": "N2"}, {}),
    (OptimisticFill, {"position": 0, "message_id": 1}, {}),
    (ProbeMessage, {"origin": "N1", "sequence": 1}, {}),
    (OrderAgreementReport, _required(OrderAgreementReport), {}),
    (InjectedFault, _required(InjectedFault), {}),
    (FaultTarget, {"kind": "site"}, {"site": None, "shard": None}),
    (
        FaultEvent,
        _required(FaultEvent),
        {"duration": 0.0, "extra_delay": 0.0, "sequence": 0, "receivers": ()},
    ),
    (
        ChaosRunResult,
        _required(ChaosRunResult),
        {
            "faults_cease_at": 0.0,
            "duration": 0.0,
            "recovery_ok": True,
            "recovered_sites": 0,
            "transferred_commits": 0,
            "offered_updates": 0,
            "shed_updates": 0,
        },
    ),
    (ConflictClass, {"class_id": "C0"}, {"key_prefixes": (), "description": ""}),
    (
        StoredProcedure,
        _required(StoredProcedure),
        {"conflict_class": None, "is_query": False, "duration": 0.002},
    ),
    (QuerySnapshot, _required(QuerySnapshot), {}),
    (CrashEvent, {"time": 0.1, "site": "N1", "up": False}, {}),
    (Heartbeat, {"origin": "N1", "sequence": 1}, {}),
    (Summary, _required(Summary), {}),
    (LinkProfile, {"base": 0.001}, {"jitter": 0.0}),
    (DeliveryRecord, _required(DeliveryRecord), {"kind": "data", "payload": None}),
    (_Entry, _required(_Entry), {}),
    (DerivedMetrics, _required(DerivedMetrics), {}),
    (LoadSummary, _required(LoadSummary), {}),
    (RunSummary, _required(RunSummary), {}),
    (TraceEvent, _required(TraceEvent), {"transaction_id": None, "attrs": ()}),
    (ClusterVerificationReport, _required(ClusterVerificationReport), {}),
    (PoissonArrivals, {"rate": 100.0}, {}),
    (OpenLoopOperation, _required(OpenLoopOperation), {}),
    (GeneratedOperation, _required(GeneratedOperation), {}),
    (_RunningExecution, _required(_RunningExecution), {}),
    (_PendingQuery, _required(_PendingQuery), {}),
]

IDS = [record_type.__name__ for record_type, _, _ in RECORDS]


@pytest.mark.parametrize("record_type, required, defaults", RECORDS, ids=IDS)
def test_keyword_construction_fills_the_defaults(record_type, required, defaults):
    record = record_type(**required)
    for name, value in {**required, **defaults}.items():
        assert getattr(record, name) == value


@pytest.mark.parametrize("record_type, required, defaults", RECORDS, ids=IDS)
def test_attribute_assignment_is_rejected(record_type, required, defaults):
    record = record_type(**required)
    for name in {**required, **defaults}:
        with pytest.raises(AttributeError):
            setattr(record, name, "changed")
    with pytest.raises(AttributeError):
        record.extra = "new"  # no instance dict either


@pytest.mark.parametrize("record_type, required, defaults", RECORDS, ids=IDS)
def test_equal_values_compare_and_hash_equal(record_type, required, defaults):
    first, second = record_type(**required), record_type(**required)
    assert first == second
    assert hash(first) == hash(second)
    name, value = next(iter(required.items()))
    changed = value + 1 if isinstance(value, (int, float)) else "other"
    assert first != record_type(**{**required, name: changed})


def test_optimistic_endpoint_accepts_its_records_but_not_plain_tuples():
    # The coordinator N2 never speaks: the definitive order comes from the test.
    kernel = SimulationKernel(seed=0)
    transport = NetworkTransport(kernel, ConstantLatency(0.001))
    dispatcher = SiteDispatcher(transport, "N1")
    endpoint = OptimisticAtomicBroadcast(
        kernel, transport, dispatcher, "N1", coordinator_site="N2"
    )
    data = OptimisticData(message_id=1, payload="p")
    order = OptimisticOrder(message_id=1, position=0)
    sends = [
        (OPTIMISTIC_DATA_KIND, tuple(data)),
        (OPTIMISTIC_DATA_KIND, data),
        (OPTIMISTIC_ORDER_KIND, tuple(order)),
    ]
    for kind, content in sends:
        transport.multicast("N1", content, destinations=["N1"], kind=kind)
    kernel.run_until_idle()
    assert endpoint.opt_delivery_log.tolist() == [1]
    assert endpoint.to_delivery_log.tolist() == []
    # The two plain tuples were refused by the endpoint's handlers.
    assert [envelope.payload for envelope in dispatcher.unhandled] == [
        tuple(data), tuple(order)
    ]
    transport.multicast("N1", order, destinations=["N1"], kind=OPTIMISTIC_ORDER_KIND)
    kernel.run_until_idle()
    assert endpoint.to_delivery_log.tolist() == [1]


def _endpoint():
    # The coordinator N2 never speaks: N1 only receives.
    kernel = SimulationKernel(seed=0)
    transport = NetworkTransport(kernel, ConstantLatency(0.001))
    dispatcher = SiteDispatcher(transport, "N1")
    endpoint = OptimisticAtomicBroadcast(
        kernel, transport, dispatcher, "N1", coordinator_site="N2"
    )
    return kernel, transport, dispatcher, endpoint


@pytest.mark.parametrize(
    "kind, record",
    [
        (OPTIMISTIC_ANNOUNCE_KIND, OptimisticAnnounce(1, "N2", 0)),
        (OPTIMISTIC_ORDER_KIND, OptimisticFill(position=0, message_id=1)),
        (OPTIMISTIC_SOLICIT_KIND, DataSolicit(1, position=0, requester="N2")),
    ],
    ids=["OptimisticAnnounce", "OptimisticFill", "DataSolicit"],
)
def test_optimistic_control_handlers_refuse_plain_tuples(kind, record):
    kernel, transport, dispatcher, _ = _endpoint()
    transport.multicast("N1", tuple(record), destinations=["N1"], kind=kind)
    transport.multicast("N1", record, destinations=["N1"], kind=kind)
    kernel.run_until_idle()
    assert [envelope.payload for envelope in dispatcher.unhandled] == [tuple(record)]


def test_heartbeat_and_lazy_write_set_receivers_refuse_plain_tuples():
    kernel = SimulationKernel(seed=0)
    transport = NetworkTransport(kernel, ConstantLatency(0.001))
    detector = FailureDetector(
        kernel, transport, "N1", FailureDetectionConfig(), group=["N1", "N2"]
    )
    lazy = ReplicatedDatabase(
        ClusterConfig(site_count=2, broadcast=BROADCAST_LAZY), ProcedureRegistry()
    ).replica("N1")
    heartbeat = Heartbeat(origin="N2", sequence=1)
    write_set = LazyWriteSet(
        lazy.kernel.draw_id(TRANSACTION_IDS, "N2"), "C0", "N2", 0.0, 0.001, (("x", 1),)
    )
    for receive, kind, record in [
        (detector.on_envelope, HEARTBEAT_KIND, heartbeat),
        (lazy.on_lazy_writes, LAZY_WRITES_KIND, write_set),
    ]:
        plain = Envelope("e1", "N2", tuple(record), kind=kind)
        assert receive(plain) is False
        assert receive(plain._replace(payload=record)) is True
    assert lazy.history.transaction_ids() == ["T:N2:1"]


def test_batching_endpoint_refuses_a_plain_tuple_batch():
    kernel, _, _, inner = _endpoint()
    endpoint = BatchingEndpoint(kernel, inner, BatchingConfig())
    batch = Batch(origin="N1", members=(BatchMember(1, "p", 0.0),))
    inner.broadcast(tuple(batch))
    kernel.run_until_idle()
    assert endpoint.opt_delivery_log.tolist() == []
    inner.broadcast(batch)
    kernel.run_until_idle()
    assert endpoint.opt_delivery_log.tolist() == [1]


def test_a_replica_refuses_a_plain_tuple_noop_fill():
    cluster = ReplicatedDatabase(ClusterConfig(site_count=2, seed=1), ProcedureRegistry())
    endpoint = cluster.replica("N1").broadcast
    endpoint.broadcast(tuple(NoOpFill(position=0)))
    cluster.run_until_idle()
    fills = [replica.metrics.counts["noop_positions_filled"] for replica in cluster.replicas.values()]
    assert fills == [0, 0]
    endpoint.broadcast(NoOpFill(position=1))
    cluster.run_until_idle()
    fills = [replica.metrics.counts["noop_positions_filled"] for replica in cluster.replicas.values()]
    assert fills == [1, 1]
