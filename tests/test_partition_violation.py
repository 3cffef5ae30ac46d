"""Tests for the disjoint-partition safety check (paper Section 2.3).

Two update transactions of *different* conflict classes must never update the
same object — the concurrency-control model relies on disjoint partitions.
The replica manager detects such misconfigured workloads and fails loudly
instead of silently producing divergent replicas.
"""

import pytest

from repro import ClusterConfig, ConflictClassMap, ProcedureRegistry, ReplicatedDatabase
from repro.errors import ReplicationError


def registry_with_shared_counter():
    registry = ProcedureRegistry()

    @registry.procedure("bump_a", conflict_class="C_a", duration=0.001)
    def bump_a(ctx, params):
        ctx.increment("a:value")
        ctx.increment("shared:counter")

    @registry.procedure("bump_b", conflict_class="C_b", duration=0.001)
    def bump_b(ctx, params):
        ctx.increment("b:value")
        ctx.increment("shared:counter")

    return registry


def test_cross_partition_write_is_rejected_with_clear_error():
    conflict_map = ConflictClassMap()
    conflict_map.define("C_a", key_prefixes=("a:",))
    conflict_map.define("C_b", key_prefixes=("b:", "shared:"))
    cluster = ReplicatedDatabase(
        ClusterConfig(site_count=2, seed=1),
        registry_with_shared_counter(),
        conflict_map=conflict_map,
        initial_data={"a:value": 0, "b:value": 0, "shared:counter": 0},
    )
    cluster.submit("N1", "bump_a", {})
    with pytest.raises(ReplicationError, match="partition"):
        cluster.run_until_idle()


def test_well_partitioned_workload_is_unaffected():
    registry = ProcedureRegistry()

    @registry.procedure("bump_a", conflict_class="C_a", duration=0.001)
    def bump_a(ctx, params):
        ctx.increment("a:value")

    conflict_map = ConflictClassMap()
    conflict_map.define("C_a", key_prefixes=("a:",))
    cluster = ReplicatedDatabase(
        ClusterConfig(site_count=2, seed=1),
        registry,
        conflict_map=conflict_map,
        initial_data={"a:value": 0},
    )
    cluster.submit("N1", "bump_a", {})
    cluster.run_until_idle()
    assert cluster.replica("N2").database_contents()["a:value"] == 1
