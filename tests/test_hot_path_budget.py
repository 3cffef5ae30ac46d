"""Deterministic budgets for the per-commit calls and memory of a workload.

Two small flat clusters share one 8-class workload: ``budget`` (4 sites
run to idle, the commit path) and ``message`` (one shard of the
benchmark's ``failover_recovery``: 3 sites with heartbeat detectors, run
past the last submission, detectors stopped, then drained).  Each window
opens after the cluster is built and before the workload is applied, so
it holds the plan, its submissions and the run.

Per commit, the test counts from ``cProfile.Profile.getstats()`` (one
entry per code object; a ``pstats`` sum would merge every generated
constructor under one key) the calls whose frame lies in ``repro``, the
calls of generated constructors (a dataclass ``__init__`` or named-tuple
``__new__``, file ``<string>``) and their sum; and, unprofiled, the
``sys.getallocatedblocks()`` the window keeps after ``gc.collect()``.
Each fails above its measured value by more than 5 %.

Measured with ``PYTHONPATH=src python tests/test_hot_path_budget.py`` on
CPython 3.11, ``PYTHONHASHSEED`` 0 and 1 alike: ``budget`` 444.3 ``repro``
and 9.1 generated calls, 9.5 retained blocks; ``message`` 350.9 and 8.6,
9.5 blocks.  CHANGES.md keeps the history of the values.
"""

from __future__ import annotations

import cProfile
import gc
import os
import sys

import pytest

import repro
from repro import ClusterConfig, ReplicatedDatabase
from repro.failure.suspicion import FailureDetectionConfig
from repro.workloads import (
    WorkloadGenerator,
    WorkloadSpec,
    build_conflict_map,
    build_initial_data,
    build_partitioned_registry,
)

#: Measured ``(repro calls, generated-constructor calls)`` per commit.
MEASURED_PER_COMMIT = {
    "budget": (444.3, 9.1),
    "message": (350.9, 8.6),
}
#: Measured retained ``sys.getallocatedblocks()`` per commit.
MEASURED_BLOCKS_PER_COMMIT = {
    "budget": 9.5,
    "message": 9.5,
}
TOLERANCE = 1.05

_PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
#: ``co_filename`` of code compiled by ``dataclasses`` and ``collections.namedtuple``.
_GENERATED_FILENAME = "<string>"

_SPEC = WorkloadSpec(
    class_count=8,
    objects_per_class=20,
    updates_per_site=60,
    update_interval=0.001,
    update_duration=0.0005,
)


def _build(config: ClusterConfig) -> ReplicatedDatabase:
    return ReplicatedDatabase(
        config,
        build_partitioned_registry(_SPEC),
        conflict_map=build_conflict_map(_SPEC),
        initial_data=build_initial_data(_SPEC),
    )


def budget_cluster(seed: int) -> tuple:
    """4 sites, no detectors: ``(cluster, apply and run)``."""
    cluster = _build(ClusterConfig(site_count=4, seed=seed))

    def run() -> None:
        WorkloadGenerator(_SPEC).apply(cluster)
        cluster.run_until_idle()

    return cluster, run


def message_cluster(seed: int) -> tuple:
    """One shard of ``failover_recovery``: 3 sites with heartbeat detectors."""
    cluster = _build(
        ClusterConfig(site_count=3, seed=seed, failure_detection=FailureDetectionConfig())
    )

    def run() -> None:
        plan = WorkloadGenerator(_SPEC).apply(cluster)
        # Detectors tick forever: run past the last submission, stop them, drain.
        cluster.run(until=plan.last_submission_time() + 0.1)
        cluster.stop_failure_detectors()
        cluster.run_until_idle()

    return cluster, run


CLUSTERS = {"budget": budget_cluster, "message": message_cluster}


def calls_per_commit(name: str, seed: int = 11) -> tuple:
    """Apply and run the named cluster under cProfile.

    Returns ``(repro calls per commit, generated-constructor calls per
    commit, commits)``.
    """
    cluster, run = CLUSTERS[name](seed)
    profiler = cProfile.Profile()
    profiler.enable()
    run()
    profiler.disable()
    repro_calls = generated_calls = 0
    for entry in profiler.getstats():
        code = entry.code
        if isinstance(code, str):  # a builtin: no code object
            continue
        if code.co_filename == _GENERATED_FILENAME:
            generated_calls += entry.callcount
        elif os.path.abspath(code.co_filename).startswith(_PACKAGE_DIR):
            repro_calls += entry.callcount
    commits = max(cluster.committed_counts().values())
    return repro_calls / commits, generated_calls / commits, commits


def retained_blocks_per_commit(name: str, seed: int = 11) -> tuple:
    """Apply and run the named cluster unprofiled.

    Returns ``(allocated blocks the window retains per commit, commits)``.
    """
    cluster, run = CLUSTERS[name](seed)
    gc.collect()
    before = sys.getallocatedblocks()
    run()
    gc.collect()
    retained = sys.getallocatedblocks() - before
    commits = max(cluster.committed_counts().values())
    return retained / commits, commits


def _assert_within_budget(name: str, commits: int) -> None:
    repro_calls, generated_calls, committed = calls_per_commit(name)
    measured_repro, measured_generated = MEASURED_PER_COMMIT[name]
    assert committed == commits
    assert repro_calls <= measured_repro * TOLERANCE, (
        f"{repro_calls:.1f} repro calls per commit exceeds the budget of "
        f"{measured_repro} x {TOLERANCE}"
    )
    assert generated_calls <= measured_generated * TOLERANCE, (
        f"{generated_calls:.1f} generated-constructor calls per commit exceeds the "
        f"budget of {measured_generated} x {TOLERANCE}"
    )
    measured_sum = measured_repro + measured_generated
    assert repro_calls + generated_calls <= measured_sum * TOLERANCE, (
        f"{repro_calls + generated_calls:.1f} repro and generated-constructor calls "
        f"per commit exceed the budget of {measured_sum:.1f} x {TOLERANCE}"
    )


def test_run_phase_calls_per_commit_stay_within_budget():
    _assert_within_budget("budget", commits=240)


def test_message_path_calls_per_commit_stay_within_budget():
    _assert_within_budget("message", commits=180)


@pytest.mark.parametrize("name, commits", [("budget", 240), ("message", 180)])
def test_run_phase_retained_blocks_per_commit_stay_within_budget(name, commits):
    blocks, committed = retained_blocks_per_commit(name)
    assert committed == commits
    measured = MEASURED_BLOCKS_PER_COMMIT[name]
    assert blocks <= measured * TOLERANCE, (
        f"the window retains {blocks:.1f} allocated blocks per commit, over "
        f"the budget of {measured} x {TOLERANCE}"
    )


if __name__ == "__main__":
    for cluster_name in CLUSTERS:
        repro_value, generated_value, committed = calls_per_commit(cluster_name)
        print(f"{cluster_name}: {repro_value:.1f} repro calls per commit over "
              f"{committed} commits")
        print(f"{cluster_name}: {generated_value:.1f} generated-constructor calls per commit")
        # One decimal: the hash seed moves only the second.
        blocks_value, _ = retained_blocks_per_commit(cluster_name)
        print(f"{cluster_name}: {blocks_value:.1f} retained allocated blocks per commit")
