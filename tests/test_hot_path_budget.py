"""Deterministic budgets for the run phase's per-commit calls and memory.

The number of calls a simulation makes is fixed by its seed: it repeats
exactly across runs and ``PYTHONHASHSEED`` values and involves no wall
clock, so it gates exactly where a timing could only trend.  The test runs
two small flat clusters under :mod:`cProfile` and counts, per commit, two
kinds of calls:

* calls whose frame lies in the ``repro`` package, and
* calls of *generated constructors*: the ``__init__`` of a dataclass and
  the ``__new__`` of a named tuple are compiled from a string, so their
  frames carry the file name ``<string>`` and no ``repro`` path.

The counts come from ``cProfile.Profile.getstats()``, which has one entry
per code object.  ``pstats`` keys its rows by (file, line, name), every
generated constructor shares one key, and ``Profile.snapshot_stats``
overwrites rows with an equal key instead of adding them up, so a
``pstats`` sum would undercount them by a varying amount.  Each count, and
their sum, fails the test when it exceeds its measured value by more than
5 %.  The sum is gated on its own because turning a generated constructor
into a written-out one moves a call from one count to the other: the sum
says whether the work changed.

The two clusters share one 8-class workload:

* ``budget``: 4 sites run to idle, without failure detectors — the
  commit path;
* ``message``: one shard of the benchmark's ``failover_recovery`` — 3
  sites with heartbeat detectors, run past the last submission, detectors
  stopped, then drained — the message path.

The same two clusters, run without the profiler, also gate what the run
phase *keeps*: ``sys.getallocatedblocks()`` after ``gc.collect()``, before
and after the run, per commit, with the same 5 % tolerance.

Measured with ``PYTHONPATH=src python tests/test_hot_path_budget.py`` on
CPython 3.11, under ``PYTHONHASHSEED`` 0 and 1 alike: 446.2 ``repro`` and
13.1 generated-constructor calls per commit on ``budget`` (459.3 together),
356.5 and 11.6 on ``message`` (368.1); 17.5 and 15.3 retained blocks per
commit (``PYTHONHASHSEED`` moves the second decimal only).  A change that
adds per-commit work must raise the measured value and say why; one that
removes work should lower it.  CHANGES.md keeps the history of the values.
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
    "budget": (446.2, 13.1),
    "message": (356.5, 11.6),
}
#: Measured retained ``sys.getallocatedblocks()`` per commit.
MEASURED_BLOCKS_PER_COMMIT = {
    "budget": 17.5,
    "message": 15.3,
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


def _build(config: ClusterConfig) -> tuple:
    cluster = ReplicatedDatabase(
        config,
        build_partitioned_registry(_SPEC),
        conflict_map=build_conflict_map(_SPEC),
        initial_data=build_initial_data(_SPEC),
    )
    return cluster, WorkloadGenerator(_SPEC).apply(cluster)


def budget_cluster(seed: int) -> tuple:
    """4 sites, no detectors: ``(cluster, run phase)``."""
    cluster, _ = _build(ClusterConfig(site_count=4, seed=seed))
    return cluster, cluster.run_until_idle


def message_cluster(seed: int) -> tuple:
    """One shard of ``failover_recovery``: 3 sites with heartbeat detectors."""
    cluster, plan = _build(
        ClusterConfig(site_count=3, seed=seed, failure_detection=FailureDetectionConfig())
    )

    def run() -> None:
        # Detectors tick forever: run past the last submission, stop them, drain.
        cluster.run(until=plan.last_submission_time() + 0.1)
        cluster.stop_failure_detectors()
        cluster.run_until_idle()

    return cluster, run


CLUSTERS = {"budget": budget_cluster, "message": message_cluster}


def calls_per_commit(name: str, seed: int = 11) -> tuple:
    """Run the named cluster under cProfile.

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
    """Run the named cluster unprofiled.

    Returns ``(allocated blocks the run phase retains per commit, commits)``.
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
        f"the run phase retains {blocks:.1f} allocated blocks per commit, over "
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
