"""A deterministic budget for the run phase's per-commit Python call count.

The number of calls a simulation makes into ``repro`` is fixed by its seed:
it repeats exactly across runs and ``PYTHONHASHSEED`` values and involves no
wall clock, so it gates exactly where a timing could only trend.  The test
runs a small 4-site, 8-class flat cluster to idle under :mod:`cProfile`,
counts the calls whose frame lies in the ``repro`` package and fails when
calls per commit exceed the measured value by more than 5 %.

Measured with ``PYTHONPATH=src python tests/test_hot_path_budget.py``:
630.5 calls per commit on CPython 3.9, 3.11 and 3.12, under
``PYTHONHASHSEED`` 0 and 1 alike (the code before the hot-path pass that
introduced this budget made 1 101.0).  A change that adds per-commit work
must raise ``MEASURED_CALLS_PER_COMMIT`` and say why; one that removes work
should lower it.
"""

from __future__ import annotations

import cProfile
import os
import pstats

import repro
from repro import ClusterConfig, ReplicatedDatabase
from repro.workloads import (
    WorkloadGenerator,
    WorkloadSpec,
    build_conflict_map,
    build_initial_data,
    build_partitioned_registry,
)

MEASURED_CALLS_PER_COMMIT = 630.5
TOLERANCE = 1.05

_PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def repro_calls_per_commit(seed: int = 11) -> tuple:
    """Run the budget cluster under cProfile; return (calls per commit, commits)."""
    spec = WorkloadSpec(
        class_count=8,
        objects_per_class=20,
        updates_per_site=60,
        update_interval=0.001,
        update_duration=0.0005,
    )
    cluster = ReplicatedDatabase(
        ClusterConfig(site_count=4, seed=seed),
        build_partitioned_registry(spec),
        conflict_map=build_conflict_map(spec),
        initial_data=build_initial_data(spec),
    )
    WorkloadGenerator(spec).apply(cluster)
    profiler = cProfile.Profile()
    profiler.enable()
    cluster.run_until_idle()
    profiler.disable()
    calls = sum(
        row[1]
        for (filename, _line, _name), row in pstats.Stats(profiler).stats.items()
        if os.path.abspath(filename).startswith(_PACKAGE_DIR)
    )
    commits = max(cluster.committed_counts().values())
    return calls / commits, commits


def test_run_phase_calls_per_commit_stay_within_budget():
    calls_per_commit, commits = repro_calls_per_commit()
    assert commits == 240
    assert calls_per_commit <= MEASURED_CALLS_PER_COMMIT * TOLERANCE, (
        f"{calls_per_commit:.1f} repro calls per commit exceeds the budget of "
        f"{MEASURED_CALLS_PER_COMMIT} x {TOLERANCE}"
    )


if __name__ == "__main__":
    value, committed = repro_calls_per_commit()
    print(f"{value:.1f} repro calls per commit over {committed} commits")
