"""Sharded scale-out: per-shard broadcast groups with cross-shard queries.

Run with::

    PYTHONPATH=src python examples/sharded_scaleout.py

The paper partitions the database into disjoint conflict classes whose
update transactions never conflict.  This example shards those classes over
independent atomic-broadcast groups — one sequencer per shard instead of one
global sequencer — and shows that, at fixed per-shard load, the aggregate
committed-update throughput grows with the shard count while queries that
span shards still read consistent merged snapshots.
"""

from repro.core.config import ShardingConfig
from repro.harness import run_sharded_workload
from repro.workloads import ShardedWorkloadSpec


def run_sweep() -> None:
    print("Sharded scale-out: fixed per-shard load, growing shard count")
    print("(each shard: 2 conflict classes, 3 replicas, 40 update txns; "
          "queries span 3 classes and hence shard boundaries)")
    print()
    header = (
        f"{'shards':>6}  {'committed':>9}  {'throughput tps':>14}  "
        f"{'latency ms':>10}  {'1SR/shard':>9}  {'queries ok':>10}"
    )
    print(header)
    print("-" * len(header))
    baseline = None
    for shard_count in (1, 2, 4, 8):
        spec = ShardedWorkloadSpec(
            shard_count=shard_count,
            classes_per_shard=2,
            updates_per_shard=40,
            update_interval=0.004,
            queries=10,
            query_span=3,
            update_duration=0.002,
        )
        summary = run_sharded_workload(
            ShardingConfig(shard_count=shard_count, sites_per_shard=3, seed=23),
            spec,
        )
        if baseline is None:
            baseline = summary.throughput_tps
        print(
            f"{shard_count:>6}  {summary.committed:>9}  "
            f"{summary.throughput_tps:>14.1f}  "
            f"{summary.mean_client_latency * 1000.0:>10.2f}  "
            f"{str(summary.one_copy_ok):>9}  {str(summary.queries_consistent):>10}"
        )
    print()
    print("Sharding removes the global sequencer: every shard's broadcast")
    print("group orders only its own classes, so throughput scales with the")
    print("shard count and per-transaction latency stays flat.  Multi-class")
    print("queries are fanned out by the router and merged from one")
    print("consistent snapshot per shard (verified above).")


if __name__ == "__main__":
    run_sweep()
