"""Benchmark: throughput scale-out of per-shard broadcast groups.

The seed system sequences every conflict class through one global atomic
broadcast group, so throughput is capped by a single sequencer.  Sharding
the classes over independent broadcast groups (one sequencer per shard)
removes that bottleneck: at fixed per-shard load, aggregate committed-update
throughput must grow with the shard count while per-transaction latency
stays flat, and both per-shard one-copy serializability and cross-shard
query snapshot consistency must hold at every scale.
"""

import pytest

from repro.harness import run_experiment

pytestmark = pytest.mark.bench

SHARD_COUNTS = (1, 2, 4, 8)


def run_sharded_scalability():
    return run_experiment(
        "sharded",
        shard_count=SHARD_COUNTS, updates_per_shard=40, queries=10, query_span=3
    )


def test_throughput_scales_with_shard_count():
    result = run_sharded_scalability()

    assert result.column("shard_count") == list(SHARD_COUNTS)
    for row in result.rows:
        # Correctness at every scale: per-shard 1SR + consistent fan-out reads.
        assert row["one_copy_ok"]
        assert row["queries_consistent"]
        # Fixed per-shard load: every shard committed its full update stream.
        assert row["total_committed"] == 40 * row["shard_count"]

    # Aggregate committed-update throughput increases monotonically from
    # 1 to 4 shards at fixed per-shard load (the acceptance criterion), and
    # keeps growing to 8 shards.
    throughputs = result.column("aggregate_throughput_tps")
    assert throughputs[0] < throughputs[1] < throughputs[2]
    assert throughputs[3] > throughputs[2]

    # Sharding must not degrade per-transaction latency: shards coordinate on
    # nothing, so mean commit latency stays within 50% of the 1-shard run.
    latencies = result.column("mean_latency_ms")
    assert max(latencies) <= 1.5 * latencies[0]
