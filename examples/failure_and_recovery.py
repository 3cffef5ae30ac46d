"""Failure injection: crashes, coordinator failover and recovery catch-up.

Run with::

    python examples/failure_and_recovery.py

The paper assumes a crash-stop model with recovery (Section 2).  This example
runs a continuous update stream over four replicas while injecting failures:

1. a non-coordinator replica crashes — its volatile state (in-flight
   transactions, delivery queues, workspaces) dies with the process and
   clients fail over to a live replica; on recovery it catches up from a
   peer's redo log (state transfer) and converges to the same state;
2. the coordinator (the site establishing the definitive total order) crashes
   — the lowest surviving site takes over and transaction processing
   continues;
3. throughout, 1-copy-serializability and replica convergence are checked.
"""

from repro import ClusterConfig, ProcedureRegistry, ReplicatedDatabase
from repro.failure import CrashSchedule
from repro.metrics import summarize
from repro.verification import check_one_copy_serializability

SLOTS = 8
PHASE_TXNS = 40


def build_registry() -> ProcedureRegistry:
    registry = ProcedureRegistry()

    @registry.procedure("add", conflict_class=lambda p: f"C{p['slot'] % 4}", duration=0.002)
    def add(ctx, params):
        key = f"slot:{params['slot']}"
        ctx.write(key, ctx.read(key) + 1)
        return key

    return registry


def main() -> None:
    cluster = ReplicatedDatabase(
        ClusterConfig(site_count=4, seed=23),
        build_registry(),
        initial_data={f"slot:{index}": 0 for index in range(SLOTS)},
    )

    healthy_sites = ["N2", "N3", "N4"]
    failovers = {"count": 0}

    def submit_with_failover(site: str, slot: int) -> None:
        # A crashed site refuses submissions; the client retries at the next
        # live replica (real-world connection failover).
        candidates = [site] + [other for other in healthy_sites if other != site]
        for candidate in candidates:
            if cluster.crash_manager.is_up(candidate):
                if candidate != site:
                    failovers["count"] += 1
                cluster.submit(candidate, "add", {"slot": slot})
                return

    def submit_phase(start: float, count: int) -> None:
        for index in range(count):
            cluster.kernel.schedule_at(
                start + index * 0.003,
                lambda site=healthy_sites[index % 3], index=index: submit_with_failover(
                    site, index % SLOTS
                ),
            )

    # Phase 1: normal operation.
    submit_phase(start=0.0, count=PHASE_TXNS)
    # N3 crashes mid-phase-1 and recovers during phase 2.
    # N1 (the initial coordinator) crashes for good before phase 2.
    cluster.crash_manager.apply_schedule(
        CrashSchedule()
        .crash_for("N3", at=0.030, duration=0.300)
        .crash("N1", at=0.200)
    )
    # Phase 2: submitted after the coordinator crashed.
    submit_phase(start=0.250, count=PHASE_TXNS)
    cluster.run_until_idle()

    total = 2 * PHASE_TXNS
    print("Failure and recovery demo (4 replicas, 2 injected failures)")
    print(f"  coordinator after failover    : {cluster.coordinator_site()} (was N1)")
    print(f"  crash count of N3             : {cluster.crash_manager.crash_count('N3')}")
    for site in ("N2", "N3", "N4"):
        replica = cluster.replica(site)
        print(f"  commits at {site}                : {replica.committed_count()} / {total}")

    surviving_histories = {
        site: cluster.replica(site).history for site in ("N2", "N3", "N4")
    }
    report = check_one_copy_serializability(surviving_histories)
    contents = {site: cluster.replica(site).database_contents() for site in ("N2", "N3", "N4")}
    identical = contents["N2"] == contents["N3"] == contents["N4"]
    latencies = summarize(cluster.all_client_latencies())

    print(f"  client failovers to live sites: {failovers['count']}")
    print(
        "  redo commits transferred to N3: "
        f"{cluster.replica('N3').metrics.count('state_transfer_commits')}"
    )
    print(f"  1-copy-serializable           : {report.ok}")
    print(f"  surviving replicas identical  : {identical}")
    print(f"  recovered N3 caught up        : {cluster.replica('N3').committed_count() == total}")
    print(f"  mean commit latency           : {latencies.mean * 1000:.2f} ms over {latencies.count} txns")
    print(f"  total slot increments applied : {sum(contents['N2'].values())} (expected {total})")


if __name__ == "__main__":
    main()
