"""Every mutable record outside configuration carries no ``__dict__``.

Every site keeps one broadcast record per message and one submission record
per request for the whole run; the query engine and the router keep one
record per query and per routed update, and the metrics keep every latency
sample.  The mutable records are classes with ``__slots__``, the frozen
request is a named tuple, and the samples are ``array('d')`` doubles, so a
kept record costs its fields and nothing more.

The rarely built mutable records — stats counters, the per-site
transaction, plans with live counters, reports built incrementally, latency
models — are slotted classes with a written-out ``__init__`` too, so
importing ``repro`` generates no methods for them.  A field that was a
dataclass ``default_factory`` gets a fresh container per instance.
"""

import gc
from array import array

import pytest

from repro import ClusterConfig, ProcedureRegistry, ReplicatedDatabase
from repro.broadcast.interfaces import BroadcastMessage, BroadcastStats
from repro.broadcast.optimistic import (
    OPTIMISTIC_DATA_KIND,
    OptimisticAtomicBroadcast,
    OptimisticData,
    _PendingConfirmation,
)
from repro.broadcast.spontaneous import OrderAgreementReport
from repro.chaos.orchestrator import SpikedLatency
from repro.chaos.scenarios import ChaosRunResult
from repro.core.execution import QueryExecution
from repro.core.replica import SubmittedRequest
from repro.database.objects import ObjectVersion, VersionChain
from repro.database.storage import StoreStats
from repro.database.transaction import Transaction, TransactionRequest
from repro.failure.crash import CrashSchedule
from repro.metrics import MetricsCollector
from repro.network import ConstantLatency, NetworkTransport
from repro.network.dispatcher import SiteDispatcher
from repro.network.latency import GeoLatency, GeoTopology, LanMulticastLatency, UniformLatency
from repro.network.transport import TransportStats, _SiteEndpoint
from repro.observability.registry import DerivedMetrics
from repro.observability.trace import TraceSpan
from repro.sharding.router import RoutedUpdate, ShardedQueryExecution, ShardSubQuery
from repro.simulation import SimulationKernel
from repro.verification.liveness import LivenessReport
from repro.verification.onecopy import OneCopyReport
from repro.verification.properties import BroadcastPropertyReport
from repro.verification.recovery import RecoveryReport
from repro.verification.sharded import ShardedVerificationReport
from repro.workloads import (
    WorkloadGenerator,
    WorkloadSpec,
    build_conflict_map,
    build_initial_data,
    build_partitioned_registry,
)
from repro.workloads.arrivals import OpenLoopPlan
from repro.workloads.generator import WorkloadPlan

from oracles import chain_versions

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


#: Builders of the rarely built mutable records.
RARELY_BUILT = [
    BroadcastStats,
    lambda: _PendingConfirmation("m:N1:1", 0),
    lambda: SpikedLatency(ConstantLatency(0.001), 0.002),
    lambda: VersionChain("x"),
    StoreStats,
    lambda: Transaction(REQUEST, "N1"),
    CrashSchedule,
    ConstantLatency,
    UniformLatency,
    LanMulticastLatency,
    lambda: GeoLatency(GeoTopology({"N1": "eu"})),
    TransportStats,
    lambda: _SiteEndpoint("N1", print),
    lambda: TraceSpan("execute", "N1", "T1", start=0.0, attempt=1, attrs={}),
    LivenessReport,
    lambda: OneCopyReport(ok=True),
    lambda: BroadcastPropertyReport(ok=True),
    RecoveryReport,
    lambda: ShardedVerificationReport(ok=True),
    OpenLoopPlan,
    WorkloadPlan,
]
RARELY_BUILT_IDS = [type(build()).__name__ for build in RARELY_BUILT]


@pytest.mark.parametrize(
    "record",
    KEPT + [build() for build in RARELY_BUILT],
    ids=[type(record).__name__ for record in KEPT] + RARELY_BUILT_IDS,
)
def test_kept_records_have_no_instance_dict(record):
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.extra = "new"
    # Every slot is set by the constructor: reading one never fails.
    for name in getattr(type(record), "__slots__", ()):
        getattr(record, name)


@pytest.mark.parametrize("build", RARELY_BUILT, ids=RARELY_BUILT_IDS)
def test_two_instances_never_share_a_container(build):
    first, second = build(), build()
    for name in type(first).__slots__:
        value = getattr(first, name)
        if isinstance(value, (list, dict, set)):
            assert value is not getattr(second, name), name


def test_a_container_passed_explicitly_is_kept():
    attrs, mismatches, violations, sheds = {}, {}, [], {}
    span = TraceSpan("execute", "N1", "T1", start=0.0, attempt=1, attrs=attrs)
    assert span.attrs is attrs
    report = OrderAgreementReport(1, 2, 1.0, 1.0, mismatches_by_site=mismatches)
    assert report.mismatches_by_site is mismatches
    result = ChaosRunResult("s", 1, 0, 0, 0, (), True, True, True, violations=violations)
    assert result.violations is violations
    derived = DerivedMetrics(0.0, {}, {}, {}, 0.0, 0, sheds_by_cause=sheds, admitted=0,
                             deferred=0, max_admission_queue_depth=0.0)
    assert derived.sheds_by_cause is sheds
    # A version chain owns its columns: it keeps the versions' fields, not
    # the caller's list, and builds records equal in all five fields.
    versions = [ObjectVersion("x", 1, created_index=0, created_by="T1")]
    chain = VersionChain("x", versions)
    assert chain_versions(chain) == versions
    assert chain.visible_at(0.5) == versions[0]


def test_a_version_chain_keeps_its_versions_in_columns_set_by_init():
    version = ObjectVersion("x", [1], created_index=0, created_by="T1", created_at=0.5)
    for chain in (VersionChain("x"), VersionChain("x", [version])):
        columns = [getattr(chain, name) for name in VersionChain.__slots__ if name != "key"]
        assert len(columns) == 4
        assert all(type(column) is list and len(column) == len(chain) for column in columns)
    # The one record it was given is not kept: it is rebuilt on request.
    rebuilt = chain.visible_at(0.0)
    assert rebuilt == version and rebuilt is not version


def test_a_flat_run_keeps_no_version_records_and_no_follower_ordered_set():
    # The benchmark's flat_update cell: 4 sites, 8 classes, 400 updates a site.
    spec = WorkloadSpec(
        class_count=8,
        objects_per_class=20,
        updates_per_site=400,
        update_interval=0.001,
        update_duration=0.0005,
    )
    cluster = ReplicatedDatabase(
        ClusterConfig(site_count=4, seed=11),
        build_partitioned_registry(spec),
        conflict_map=build_conflict_map(spec),
        initial_data=build_initial_data(spec),
    )
    WorkloadGenerator(spec).apply(cluster)
    cluster.run_until_idle()
    commits = max(cluster.committed_counts().values())
    assert commits == 1600
    gc.collect()
    # A version chain keeps columns; a record lives only while a caller holds it.
    assert sum(1 for obj in gc.get_objects() if type(obj) is ObjectVersion) == 0
    coordinator = cluster.coordinator_site()
    for site_id in cluster.site_ids():
        endpoint = cluster.broadcast_endpoint(site_id)
        per_message_sets = [
            name
            for name, value in vars(endpoint).items()
            if isinstance(value, (set, frozenset)) and len(value) >= commits
        ]
        # Only the coordinator remembers what it ordered; a follower's
        # position map already says it.
        assert per_message_sets == (["_ordered_messages"] if site_id == coordinator else [])


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
        transport.multicast("N1", data, destinations=["N1"], kind=OPTIMISTIC_DATA_KIND)
        kernel.run_until_idle()
    assert endpoint.opt_delivery_log == received
    assert [endpoint.message(m).local_position for m in received] == [0, 1, 2]
    assert endpoint.to_delivery_log == []
    endpoint.set_coordinator("N1")
    kernel.run_until_idle()
    assert endpoint.to_delivery_log == received
