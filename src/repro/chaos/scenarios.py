"""Chaos scenario library: canned fault schedules with full verification.

Each scenario builds a sharded cluster, applies the standard sharded
workload, arms a :class:`FaultPlan` against it and runs to completion; the
run then passes through *all* correctness checks — per-shard
1-copy-serializability, cross-shard query snapshot consistency, and the
eventual-termination liveness check — and returns a
:class:`ChaosRunResult` carrying the injected-fault trace.  The scenarios
mirror the failure modes the paper's system model admits (Section 2: crash
failures with recovery, reliable channels):

* :func:`sequencer_failover_under_load` — the site establishing a shard's
  definitive order crashes mid-load and later recovers.
* :func:`rolling_shard_crashes` — one (seed-chosen) site per shard crashes
  in a staggered rolling window.
* :func:`whole_shard_outage` — every site of one shard goes down at once
  and recovers together.
* :func:`partition_during_optimistic_delivery` — a follower is partitioned
  away while messages are being opt-delivered, then rejoins.
* :func:`latency_spike_under_load` — the network slows down sharply for a
  window, stretching the gap between tentative and definitive delivery.
* :func:`wan_false_suspicion` — on a WAN topology with suspicion-driven
  failover, a latency spike makes detectors falsely suspect the
  coordinator: the group promotes, the suspicion is corrected, and the
  rightful coordinator reclaims the role — no crash ever happens.
* :func:`asymmetric_partition_suspicion` — a directed link break makes one
  follower deaf to the coordinator while the coordinator still hears it;
  only the deaf side suspects, condemnation needs a quorum, so no failover
  occurs.
* :func:`random_fuzz` — a seed-driven fault *soup*: crashes, one-way
  partitions and latency spikes drawn from the cluster's seeded stream land
  on a live **open-loop** run (arrivals keep coming regardless of what the
  faults do to throughput), with admission control shedding the excess.
  The endurance suite (``pytest -m endurance``) sweeps this scenario across
  seeds.

Every scenario is a pure function of its seed: two runs with the same seed
produce identical fault traces and identical commit outcomes (asserted by
``tests/test_chaos_scenarios.py``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from ..core.admission import AdmissionConfig
from ..core.config import ShardingConfig
from ..failure.suspicion import FailureDetectionConfig
from ..network.latency import GeoTopology, LinkProfile
from ..errors import ChaosError, VerificationError
from ..sharding.cluster import ShardedCluster
from ..observability.registry import derive_metrics
from ..observability.summary import finish_run
from ..types import SiteId
from ..workloads.procedures import (
    build_conflict_map,
    build_initial_data,
    build_partitioned_registry,
)
from ..workloads.arrivals import OpenLoopSpec, OpenLoopTrafficEngine, PoissonArrivals
from ..workloads.sharded import (
    ShardedWorkloadGenerator,
    ShardedWorkloadSpec,
    build_shard_map,
)
from .orchestrator import ChaosOrchestrator, InjectedFault, trace_signature
from .plan import FaultPlan, coordinator, random_site, shard, site


class ChaosRunResult(NamedTuple):
    """Outcome of one chaos run: fault trace + verification verdicts."""

    scenario: str
    seed: int
    submitted_updates: int
    committed: int
    faults_injected: int
    trace: Tuple[InjectedFault, ...]
    one_copy_ok: bool
    queries_consistent: bool
    liveness_ok: bool
    violations: List[str]
    faults_cease_at: float = 0.0
    duration: float = 0.0
    recovery_ok: bool = True
    recovered_sites: int = 0
    transferred_commits: int = 0
    #: Open-loop extras (zero for the closed-loop scenarios): planned update
    #: offers over the horizon, and how many admission shed outright.
    offered_updates: int = 0
    shed_updates: int = 0

    @property
    def ok(self) -> bool:
        """Whether every verification layer passed."""
        return (
            self.one_copy_ok
            and self.queries_consistent
            and self.liveness_ok
            and self.recovery_ok
        )

    def raise_if_violated(self) -> None:
        """Raise :class:`VerificationError` when any check failed."""
        if not self.ok:
            raise VerificationError(
                f"chaos scenario {self.scenario!r} (seed {self.seed}) failed: "
                + "; ".join(self.violations)
            )

    def trace_signature(self) -> Tuple[Tuple[float, str, Tuple[SiteId, ...]], ...]:
        """Comparable fingerprint of the injected faults (see determinism test)."""
        return trace_signature(self.trace)


# ---------------------------------------------------------------------------
# Shared machinery
# ---------------------------------------------------------------------------

#: Default sizing: small enough to run every scenario in SCENARIOS across
#: the full seed sweep of tests/test_chaos_scenarios.py in a few seconds,
#: busy enough that faults land while transactions are in flight.
DEFAULT_SHARD_COUNT = 2
DEFAULT_SITES_PER_SHARD = 3
DEFAULT_UPDATES_PER_SHARD = 24
DEFAULT_QUERIES = 6


def build_chaos_cluster(
    seed: int,
    *,
    shard_count: int = DEFAULT_SHARD_COUNT,
    sites_per_shard: int = DEFAULT_SITES_PER_SHARD,
    updates_per_shard: int = DEFAULT_UPDATES_PER_SHARD,
    queries: int = DEFAULT_QUERIES,
    update_duration: float = 0.001,
    batching=None,
    tracer=None,
    topology=None,
    failure_detection=None,
    admission=None,
) -> Tuple[ShardedCluster, ShardedWorkloadSpec]:
    """Build the standard cluster + workload spec used by the scenarios.

    A crash injected mid-multicast loses no message: the transport delivers
    every envelope its sender handed over, whatever happens to the sender
    afterwards, so the broadcast needs no relays.  ``batching`` optionally enables
    the broadcast batching layer (a
    :class:`~repro.broadcast.batching.BatchingConfig`), so every scenario
    can be replayed against batched endpoints.  ``tracer`` optionally attaches
    a :class:`~repro.observability.trace.TransactionTracer` to every shard, so
    a chaos run can be traced end to end (traces are same-seed reproducible).
    ``topology`` (a :class:`~repro.network.latency.GeoTopology`) puts the
    shared transport on region-aware per-link WAN delays, and
    ``failure_detection`` (a
    :class:`~repro.failure.suspicion.FailureDetectionConfig`) feeds every
    shard's failover governor from heartbeat detectors instead of the
    perfect oracle detector — runs using it must go through ``execute_chaos_run`` with a
    ``settle_time`` so the periodic detectors can be stopped before the
    final drain to idle.  ``admission`` (an
    :class:`~repro.core.admission.AdmissionConfig`) arms every shard's
    per-site watermark valve — only meaningful for runs driven through the
    open-loop offer path (see :func:`execute_fuzz_run`).
    """
    spec = ShardedWorkloadSpec(
        shard_count=shard_count,
        classes_per_shard=2,
        updates_per_shard=updates_per_shard,
        update_interval=0.004,
        queries=queries,
        query_span=3,
        update_duration=update_duration,
    )
    base_spec = spec.base_spec()
    config = ShardingConfig(
        shard_count=shard_count,
        sites_per_shard=sites_per_shard,
        seed=seed,
        batching=batching,
        tracer=tracer,
        topology=topology,
        failure_detection=failure_detection,
        admission=admission,
    )
    cluster = ShardedCluster(
        config,
        build_partitioned_registry(base_spec),
        conflict_map=build_conflict_map(base_spec),
        shard_map=build_shard_map(spec, config.shard_ids()),
        initial_data=build_initial_data(base_spec),
    )
    return cluster, spec


def _run_plan(
    cluster: ShardedCluster,
    plan: FaultPlan,
    *,
    scenario: str,
    seed: int,
    settle_time: Optional[float],
) -> ChaosRunResult:
    """Arm ``plan`` on a loaded cluster, finish the run, fold trace + verdicts.

    ``settle_time`` goes to :func:`~repro.observability.summary.finish_run`:
    suspicion-driven runs stop their detectors there before the final drain.
    """
    orchestrator = ChaosOrchestrator(cluster, plan).arm()
    summary = finish_run(cluster, settle_time=settle_time)
    verification = summary.verification
    return ChaosRunResult(
        scenario=scenario,
        seed=seed,
        # The liveness check visits every transaction any site accepted.
        submitted_updates=verification.liveness.transactions_checked,
        committed=summary.committed,
        faults_injected=orchestrator.faults_injected(),
        trace=tuple(orchestrator.trace),
        one_copy_ok=verification.one_copy.ok,
        queries_consistent=verification.queries.ok,
        liveness_ok=verification.liveness.ok,
        violations=verification.violations,
        faults_cease_at=plan.faults_cease_at(),
        duration=cluster.now,
        recovery_ok=verification.recovery.ok,
        recovered_sites=verification.recovery.recovered_sites_checked,
        transferred_commits=verification.recovery.transferred_commits,
    )


def execute_chaos_run(
    cluster: ShardedCluster,
    spec: ShardedWorkloadSpec,
    plan: FaultPlan,
    *,
    scenario: str,
    seed: int,
    settle_time: Optional[float] = None,
) -> ChaosRunResult:
    """Apply workload + plan to ``cluster``, run to idle, verify everything.

    ``submitted_updates`` is what the workload *meant* to submit, so an update
    the router never managed to place shows up as ``committed < submitted``.
    """
    ShardedWorkloadGenerator(spec).apply(cluster)
    result = _run_plan(
        cluster, plan, scenario=scenario, seed=seed, settle_time=settle_time
    )
    return result._replace(submitted_updates=spec.total_updates())


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


def sequencer_failover_under_load(seed: int = 1, **sizing) -> ChaosRunResult:
    """Crash the current sequencer of the first shard mid-load; it recovers.

    The crash target is the *role*: whichever site holds the coordinator
    role of shard S1 when the fault fires goes down, the shard promotes the
    lowest-id survivor, in-flight messages still get ordered, and the old
    coordinator recovers later, catches up, and — under the Ω rule — takes
    the role back.
    """
    cluster, spec = build_chaos_cluster(seed, **sizing)
    first_shard = cluster.shard_ids()[0]
    plan = (
        FaultPlan("sequencer-failover")
        .crash(coordinator(first_shard), at=0.030, duration=0.080)
    )
    return execute_chaos_run(
        cluster, spec, plan, scenario="sequencer_failover_under_load", seed=seed
    )


def rolling_shard_crashes(seed: int = 1, **sizing) -> ChaosRunResult:
    """Crash one seed-chosen site per shard in staggered rolling windows.

    Which site goes down in each shard is drawn from the cluster's seeded
    ``chaos.targets`` stream, so the rolling schedule itself varies with the
    seed while remaining fully reproducible.  A drawn site may well be a
    shard's coordinator — then this scenario also exercises failover.
    """
    cluster, spec = build_chaos_cluster(seed, **sizing)
    plan = FaultPlan("rolling-crashes")
    for index, shard_id in enumerate(cluster.shard_ids()):
        plan.crash(random_site(shard_id), at=0.020 + 0.025 * index, duration=0.040)
    return execute_chaos_run(
        cluster, spec, plan, scenario="rolling_shard_crashes", seed=seed
    )


def whole_shard_outage(seed: int = 1, **sizing) -> ChaosRunResult:
    """Take every site of the last shard down at once; they recover together.

    During the outage the rest of the system keeps committing; updates routed
    to the dark shard are buffered by the reliable transport and commit after
    recovery, so the run still terminates with full convergence.
    """
    cluster, spec = build_chaos_cluster(seed, **sizing)
    last_shard = cluster.shard_ids()[-1]
    plan = FaultPlan("shard-outage").crash(shard(last_shard), at=0.030, duration=0.060)
    return execute_chaos_run(cluster, spec, plan, scenario="whole_shard_outage", seed=seed)


def partition_during_optimistic_delivery(seed: int = 1, **sizing) -> ChaosRunResult:
    """Partition a follower away while messages are being opt-delivered.

    The isolated site keeps opt-delivering its own submissions but sees no
    definitive confirmations until the partition heals; held envelopes are
    flushed on heal and the site converges with its group.
    """
    cluster, spec = build_chaos_cluster(seed, **sizing)
    first_shard = cluster.shard_ids()[0]
    follower = cluster.shard(first_shard).site_ids()[-1]
    plan = FaultPlan("opt-delivery-partition").partition(
        [site(follower)], at=0.015, duration=0.050
    )
    return execute_chaos_run(
        cluster, spec, plan, scenario="partition_during_optimistic_delivery", seed=seed
    )


def crash_during_execution(seed: int = 1, **sizing) -> ChaosRunResult:
    """Crash a seed-chosen site of the first shard while transactions execute.

    The scenario stretches the per-transaction service time so the crash
    window reliably lands on sites with populated class queues, optimistic
    deliveries awaiting confirmation and workspaces mid-flight.  With real
    crash semantics all of that volatile state dies with the process: on
    recovery the site must rebuild its committed prefix from a live peer's
    redo log (state transfer), rejoin its broadcast group at the current
    sequence point and re-submit its own unresolved client requests.  The
    run then has to pass the recovery-completeness check on top of the
    standard property stack — the recovered store, history and frontier must
    be indistinguishable from a replica that never crashed.
    """
    # Longer executions than the default scenario sizing: the crash must hit
    # transactions *during* execution, not between them.
    sizing.setdefault("update_duration", 0.004)
    cluster, spec = build_chaos_cluster(seed, **sizing)
    first_shard = cluster.shard_ids()[0]
    plan = (
        FaultPlan("crash-during-execution")
        .crash(random_site(first_shard), at=0.025, duration=0.060)
        .crash(random_site(first_shard), at=0.070, duration=0.050)
    )
    return execute_chaos_run(
        cluster, spec, plan, scenario="crash_during_execution", seed=seed
    )


def latency_spike_under_load(seed: int = 1, **sizing) -> ChaosRunResult:
    """Inflate every message delay by 5 ms for a window in mid-load.

    A spike stretches the gap between tentative and definitive delivery —
    more reordering risk, never a correctness violation (paper Section 2.1's
    trade-off under degraded spontaneous order).
    """
    cluster, spec = build_chaos_cluster(seed, **sizing)
    plan = FaultPlan("latency-spike").latency_spike(0.005, at=0.020, duration=0.040)
    return execute_chaos_run(
        cluster, spec, plan, scenario="latency_spike_under_load", seed=seed
    )


def wan_false_suspicion(seed: int = 1, **sizing) -> ChaosRunResult:
    """False suspicion on a WAN: a latency spike, no crash, a full failover.

    The cluster runs on a two-region striped topology with suspicion-driven
    failover.  A latency spike stretches heartbeat delays past the detection
    timeout, so the followers falsely suspect (and condemn) the coordinator
    — which is perfectly healthy — and promote the next-ranked site.  When
    the spike passes, fresh heartbeats correct the suspicion, each detector
    widens its timeout (the ◇P adaptation), and the rightful lowest-ranked
    site reclaims the role.  Despite two view changes with the old
    coordinator still alive and assigning, the run must pass the full stack:
    1-copy-serializability, query consistency and liveness.
    """
    sizing.setdefault(
        "topology",
        GeoTopology(
            ("eu", "us"),
            intra=LinkProfile(base=0.0004, jitter=0.0001),
            cross=LinkProfile(base=0.002, jitter=0.0003),
        ),
    )
    sizing.setdefault("failure_detection", FailureDetectionConfig())
    cluster, spec = build_chaos_cluster(seed, **sizing)
    plan = (
        FaultPlan("wan-false-suspicion")
        .latency_spike(0.080, at=0.020, duration=0.060)
    )
    return execute_chaos_run(
        cluster,
        spec,
        plan,
        scenario="wan_false_suspicion",
        seed=seed,
        settle_time=0.6,
    )


def asymmetric_partition_suspicion(seed: int = 1, **sizing) -> ChaosRunResult:
    """A directed link break: one follower suspects, the quorum does not.

    The link from the first shard's coordinator to its last follower is
    severed one way: the follower stops hearing the coordinator (heartbeats
    and order messages alike) while the coordinator still hears the
    follower.  The deaf follower comes to suspect the coordinator, but
    condemnation needs a quorum of the other live observers, so no failover
    happens; when the link is restored, held envelopes (including stale
    heartbeats, which the sequence check must discard) are flushed, the
    follower re-trusts the coordinator and converges.
    """
    sizing.setdefault("failure_detection", FailureDetectionConfig())
    cluster, spec = build_chaos_cluster(seed, **sizing)
    first_shard = cluster.shard_ids()[0]
    follower = cluster.shard(first_shard).site_ids()[-1]
    plan = FaultPlan("asymmetric-partition").partition_oneway(
        [coordinator(first_shard)], [site(follower)], at=0.020, duration=0.080
    )
    return execute_chaos_run(
        cluster,
        spec,
        plan,
        scenario="asymmetric_partition_suspicion",
        seed=seed,
        settle_time=0.6,
    )


# ---------------------------------------------------------------------------
# Random fuzz (open-loop endurance scenario)
# ---------------------------------------------------------------------------

#: Fault kinds the fuzz plan draws from, with their relative weights.
FUZZ_FAULT_KINDS: Tuple[str, ...] = ("crash", "partition_oneway", "latency_spike")
FUZZ_FAULT_WEIGHTS: Tuple[float, ...] = (3.0, 2.0, 2.0)
#: Virtual seconds the fuzz's open-loop stream keeps offering work.
FUZZ_HORIZON = 0.12
#: Faults one fuzz plan draws.
FUZZ_EVENTS = 5
#: Share of the fuzz's arrivals that are queries.
FUZZ_QUERY_FRACTION = 0.05
#: The fuzz's admission valve, armed on every shard.
FUZZ_ADMISSION = AdmissionConfig(high_watermark=40, low_watermark=20)


def build_fuzz_plan(cluster: ShardedCluster) -> FaultPlan:
    """Draw a random fault soup from the cluster's seeded fuzz stream.

    Every draw — kind, start time, duration, victims, spike size — comes
    from the ``"random-fuzz.plan"`` stream of the cluster's master seed, so
    the plan (and hence the injected trace) is a pure function of the seed.
    :data:`FUZZ_EVENTS` faults start inside ``[0.1, 0.55] * FUZZ_HORIZON`` and
    last ``[0.1, 0.3] * FUZZ_HORIZON``, so they always land on live traffic
    and always cease before the arrival stream runs dry (the liveness
    assertions need a fault-free tail).  Crashes pick a seeded site of a
    seeded shard (which may well be a coordinator — then the fuzz also
    exercises failover, or a whole shard if windows stack); one-way
    partitions sever a directed link between two distinct seeded sites;
    latency spikes inflate every delay by a seeded 2–8 ms.
    """
    stream = cluster.kernel.random.stream("random-fuzz.plan")
    plan = FaultPlan("random-fuzz")
    sites = sorted(cluster.site_ids())
    shard_ids = sorted(cluster.shard_ids())
    for _ in range(FUZZ_EVENTS):
        at = stream.uniform(0.10 * FUZZ_HORIZON, 0.55 * FUZZ_HORIZON)
        duration = stream.uniform(0.10 * FUZZ_HORIZON, 0.30 * FUZZ_HORIZON)
        kind = stream.weighted_choice(FUZZ_FAULT_KINDS, FUZZ_FAULT_WEIGHTS)
        if kind == "crash":
            plan.crash(random_site(stream.choice(shard_ids)), at=at, duration=duration)
        elif kind == "partition_oneway":
            source, receiver = stream.sample(sites, 2)
            plan.partition_oneway(
                [site(source)], [site(receiver)], at=at, duration=duration
            )
        else:
            plan.latency_spike(stream.uniform(0.002, 0.008), at=at, duration=duration)
    return plan


def execute_fuzz_run(
    cluster: ShardedCluster,
    spec: OpenLoopSpec,
    plan: FaultPlan,
    *,
    scenario: str,
    seed: int,
) -> ChaosRunResult:
    """Open-loop counterpart of :func:`execute_chaos_run`.

    The load is an :class:`~repro.workloads.arrivals.OpenLoopTrafficEngine`
    stream through the cluster's admission-aware offer path, so — unlike the
    closed-loop executor — the number of *submitted* updates is an outcome,
    not an input: admission sheds offers while sites are saturated or dark,
    and the run passes exactly when everything that **was** admitted commits
    everywhere (``committed == submitted_updates``) under the full
    verification stack.
    """
    open_plan = OpenLoopTrafficEngine(spec).apply(cluster)
    result = _run_plan(cluster, plan, scenario=scenario, seed=seed, settle_time=None)
    return result._replace(
        offered_updates=open_plan.update_count,
        shed_updates=sum(derive_metrics(cluster).sheds_by_cause.values()),
    )


def random_fuzz(
    seed: int = 1,
    *,
    rate: float = 1500.0,
    admission: AdmissionConfig = FUZZ_ADMISSION,
    **sizing,
) -> ChaosRunResult:
    """Seed-driven fault soup over a live open-loop run (endurance scenario).

    :data:`FUZZ_EVENTS` faults — crashes, one-way partitions, latency
    spikes, all drawn from the seed — land while a Poisson open-loop stream
    of ``rate`` arrivals/second keeps offering work for
    :data:`FUZZ_HORIZON` virtual seconds through the ``admission`` valve.
    The endurance suite (``tests/test_endurance_fuzz.py``) runs this across
    a seed sweep and additionally asserts that the same seed reproduces the
    same fault trace.
    """
    cluster, shard_spec = build_chaos_cluster(seed, admission=admission, **sizing)
    spec = OpenLoopSpec(
        arrivals=PoissonArrivals(rate=rate),
        horizon=FUZZ_HORIZON,
        class_count=shard_spec.class_count,
        objects_per_class=shard_spec.objects_per_class,
        query_fraction=FUZZ_QUERY_FRACTION,
        query_span=shard_spec.query_span,
        update_duration=shard_spec.update_duration,
    )
    plan = build_fuzz_plan(cluster)
    return execute_fuzz_run(cluster, spec, plan, scenario="random_fuzz", seed=seed)


#: Name → scenario function; the chaos experiment and tests iterate this.
SCENARIOS: Dict[str, Callable[..., ChaosRunResult]] = {
    "sequencer_failover_under_load": sequencer_failover_under_load,
    "rolling_shard_crashes": rolling_shard_crashes,
    "whole_shard_outage": whole_shard_outage,
    "partition_during_optimistic_delivery": partition_during_optimistic_delivery,
    "crash_during_execution": crash_during_execution,
    "latency_spike_under_load": latency_spike_under_load,
    "wan_false_suspicion": wan_false_suspicion,
    "asymmetric_partition_suspicion": asymmetric_partition_suspicion,
    "random_fuzz": random_fuzz,
}


def run_chaos_scenario(name: str, seed: int = 1, **sizing) -> ChaosRunResult:
    """Run one scenario from :data:`SCENARIOS` by name."""
    try:
        scenario = SCENARIOS[name]
    except KeyError:
        raise ChaosError(
            f"unknown chaos scenario {name!r}; available: {sorted(SCENARIOS)}"
        ) from None
    return scenario(seed=seed, **sizing)
