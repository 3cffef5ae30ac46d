"""Standard stored-procedure sets used by workloads, examples and benchmarks."""

from __future__ import annotations

from typing import Dict, List

from ..database.procedures import ProcedureRegistry, StoredProcedure, TransactionContext
from ..types import ObjectKey, ObjectValue
from .specs import INITIAL_VALUE, WorkloadSpec, partition_class_id, partition_key

#: Names of the generated procedures.
UPDATE_PROCEDURE = "partition_update"
READ_CLASSES_QUERY = "partition_scan"
SUM_ALL_QUERY = "database_sum"


def build_initial_data(spec: WorkloadSpec) -> Dict[ObjectKey, ObjectValue]:
    """Initial contents of the partitioned database described by ``spec``."""
    data: Dict[ObjectKey, ObjectValue] = {}
    for class_index in range(spec.class_count):
        for object_index in range(spec.objects_per_class):
            data[partition_key(class_index, object_index)] = INITIAL_VALUE
    return data


def build_partitioned_registry(spec: WorkloadSpec) -> ProcedureRegistry:
    """Build the stored procedures of the standard partitioned workload.

    * ``partition_update`` — read-modify-write the given objects of one
      partition (one conflict class per partition).
    * ``partition_scan`` — read every object of a set of partitions (query).
    * ``database_sum`` — read every object of the database (query).

    Each partition's keys are built once, here: every site's version chains,
    workspaces and history records then share one string per object.
    """
    registry = ProcedureRegistry()
    # Dicts, not sequences: an out-of-range or negative index must fail,
    # not wrap around to another object.
    keys: Dict[int, Dict[int, ObjectKey]] = {
        class_index: {
            object_index: partition_key(class_index, object_index)
            for object_index in range(spec.objects_per_class)
        }
        for class_index in range(spec.class_count)
    }

    def update_body(ctx: TransactionContext, params: Dict[str, object]) -> int:
        class_keys = keys[int(params["class_index"])]
        object_indexes: List[int] = list(params["object_indexes"])
        amount = params.get("amount", 1)
        total = 0
        for object_index in object_indexes:
            key = class_keys[object_index]
            value = ctx.read(key)
            updated = value + amount
            ctx.write(key, updated)
            total += updated
        return total

    def scan_body(ctx: TransactionContext, params: Dict[str, object]) -> int:
        class_indexes: List[int] = list(params["class_indexes"])
        total = 0
        for class_index in class_indexes:
            for key in keys[class_index].values():
                total += ctx.read(key)
        return total

    def sum_body(ctx: TransactionContext, params: Dict[str, object]) -> int:
        total = 0
        for class_keys in keys.values():
            for key in class_keys.values():
                total += ctx.read(key)
        return total

    registry.register(
        StoredProcedure(
            name=UPDATE_PROCEDURE,
            body=update_body,
            conflict_class=lambda params: partition_class_id(int(params["class_index"])),
            is_query=False,
            duration=spec.update_duration,
        )
    )
    registry.register(
        StoredProcedure(
            name=READ_CLASSES_QUERY,
            body=scan_body,
            conflict_class=None,
            is_query=True,
            duration=spec.query_duration,
        )
    )
    registry.register(
        StoredProcedure(
            name=SUM_ALL_QUERY,
            body=sum_body,
            conflict_class=None,
            is_query=True,
            duration=spec.query_duration,
        )
    )
    return registry


def build_conflict_map(spec: WorkloadSpec):
    """Build the conflict-class map (partition ownership) for ``spec``."""
    from ..database.conflict import ConflictClassMap

    conflict_map = ConflictClassMap()
    for class_index in range(spec.class_count):
        conflict_map.define(
            partition_class_id(class_index),
            key_prefixes=(f"{partition_key(class_index, 0).rsplit(':', 1)[0]}:",),
            description=f"partition {class_index} of the standard workload",
        )
    return conflict_map
