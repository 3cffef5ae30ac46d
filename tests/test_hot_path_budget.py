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

Measured with ``PYTHONPATH=src python tests/test_hot_path_budget.py`` on
CPython 3.11, under ``PYTHONHASHSEED`` 0 and 1 alike: 450.3 ``repro`` and
13.1 generated-constructor calls per commit on ``budget`` (463.4 together),
359.6 and 11.6 on ``message`` (371.2).  History of ``budget``'s ``repro`` calls: 1 101.0 before
this budget existed, 630.5 when it landed, 609.4 once frozen records
nobody kept were gone (generated calls 48.1 → 32.1), 500.7 once multicast
kept its resolved receivers and the run phase wrote metrics without a call
(``message``: 649.7 → 506.5), 482.7 once data and order messages were
plain multicasts instead of going through an echoing reliable-broadcast
wrapper (generated 32.1 → 30.1; ``message``: 506.5 / 34.6 → 384.0 /
24.6, its cluster no longer echoing), 470.5 once commits stopped appending
to a separate redo log and workload keys stopped being formatted per access
(``message``: 384.0 → 374.8), 458.5 once the kept message, request and
query records had slots (their written-out ``__init__`` is a ``repro``
frame, a dataclass's was generated: generated 30.1 → 25.1), the delivery
path read the delivery timestamps instead of three properties, and class
ids came from a cache (``message``: 374.8 / 24.6 → 365.8 / 20.6); and
generated calls fell to 21.1 (``message``: 17.6) once every record outside
configuration stopped being a dataclass.  The per-site ``Transaction``'s
written-out ``__init__`` is a ``repro`` frame where a dataclass's was
generated, but it also absorbs the ``__post_init__`` that the generated one
called, so ``repro`` calls stay put while one generated call per site and
commit goes (4 on ``budget``, 3 on ``message``).  ``budget``'s ``repro``
calls fell to 450.3 and its generated calls to 13.1 (``message``: 359.6 /
11.6) once version chains kept columns: an install appends four fields
instead of building an ``ObjectVersion``, and a read copies the value
straight from its column.  A change that adds
per-commit work must raise the measured value and say why; one that
removes work should lower it.

The same two clusters, run without the profiler, also gate what the run
phase *keeps*: ``sys.getallocatedblocks()`` after ``gc.collect()``, before
and after the run, per commit, with the same 5 % tolerance.  It is 17.5 on
``budget`` and 15.3 on ``message`` (``PYTHONHASHSEED`` moves the second
decimal only).  History: 80.6 / 64.4 while a separate redo log copied every
commit's writes beside the version store and every site built its own key
strings; 52.5 / 43.3 once the store was the redo log and the workload's keys
were built once; 48.5 / 40.3 once a read-modify-write commit's history
record used one key tuple for its reads and writes; 24.5 / 21.3 once the
broadcast, submission and query records had slots instead of a
``__dict__``, the request was a named tuple, latency samples were
``array('d')`` doubles and every request of a class shared one class-id
string; 25.5 / 21.3 once the workload's ``GeneratedOperation`` was a named
tuple.  That rise is a smaller release, not more kept: the run frees every
scheduled operation, which now returns one block where a dataclass
instance returned two.  Absolute blocks fell on ``budget``, with
``PYTHONHASHSEED=0``: 133 997 → 133 084 after import, 142 772 → 140 947
after the build and 148 651 → 147 071 after the run.  17.5 / 15.3 once a
version chain kept its versions as columns instead of one record each, and
followers stopped mirroring their position map in an ordered-message set.
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
    "budget": (450.3, 13.1),
    "message": (359.6, 11.6),
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
