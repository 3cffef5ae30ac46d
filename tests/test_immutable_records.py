"""The hot immutable records: named tuples that behave like frozen records.

Envelopes, broadcast wire payloads, object versions and history entries are
built once or more per commit, so they are ``typing.NamedTuple`` classes
rather than frozen dataclasses.  These tests pin what callers rely on: no
attribute assignment, keyword construction with defaults, value equality
within one type, and protocol ``isinstance`` checks that still tell a record
from a plain tuple holding the same values.
"""

import pytest

from repro.broadcast.optimistic import (
    OPTIMISTIC_DATA_KIND,
    OPTIMISTIC_ORDER_KIND,
    OptimisticAtomicBroadcast,
    OptimisticData,
    OptimisticOrder,
)
from repro.database import CommittedTransaction, ObjectVersion
from repro.network import ConstantLatency, NetworkTransport
from repro.network.dispatcher import SiteDispatcher
from repro.network.message import Envelope
from repro.simulation import SimulationKernel

#: (record type, required fields, the defaults of every other field)
RECORDS = [
    (
        Envelope,
        {"envelope_id": "e1", "sender": "N1", "destination": None, "payload": "p"},
        {"kind": "data", "sent_at": 0.0},
    ),
    (
        OptimisticData,
        {"message_id": "m:N1:1", "origin": "N1", "payload": "p", "broadcast_at": 0.5},
        {},
    ),
    (OptimisticOrder, {"message_id": "m:N1:1", "position": 3}, {}),
    (
        ObjectVersion,
        {"key": "x", "value": 1, "created_index": 0, "created_by": "T1"},
        {"created_at": 0.0},
    ),
    (
        CommittedTransaction,
        {"transaction_id": "T1", "conflict_class": "C0", "global_index": 0, "committed_at": 0.1},
        {"write_keys": (), "read_keys": (), "message_id": None},
    ),
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
    name = next(iter(required))
    assert first != record_type(**{**required, name: "other"})


def test_optimistic_endpoint_accepts_its_records_but_not_plain_tuples():
    # The coordinator N2 never speaks: the definitive order comes from the test.
    kernel = SimulationKernel(seed=0)
    transport = NetworkTransport(kernel, ConstantLatency(0.001))
    dispatcher = SiteDispatcher(transport, "N1")
    endpoint = OptimisticAtomicBroadcast(
        kernel, transport, dispatcher, "N1", coordinator_site="N2"
    )
    data = OptimisticData(message_id="m:N1:1", origin="N1", payload="p", broadcast_at=0.0)
    order = OptimisticOrder(message_id="m:N1:1", position=0)
    sends = [
        (OPTIMISTIC_DATA_KIND, tuple(data)),
        (OPTIMISTIC_DATA_KIND, data),
        (OPTIMISTIC_ORDER_KIND, tuple(order)),
    ]
    for kind, content in sends:
        transport.unicast("N1", "N1", content, kind=kind)
    kernel.run_until_idle()
    assert endpoint.opt_delivery_log == ["m:N1:1"]
    assert endpoint.to_delivery_log == []
    # The two plain tuples were refused by the endpoint's handlers.
    assert [envelope.payload for envelope in dispatcher.unhandled] == [
        tuple(data), tuple(order)
    ]
    transport.unicast("N1", "N1", order, kind=OPTIMISTIC_ORDER_KIND)
    kernel.run_until_idle()
    assert endpoint.to_delivery_log == ["m:N1:1"]
