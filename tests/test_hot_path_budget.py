"""A deterministic budget for the run phase's per-commit Python call count.

The number of calls a simulation makes is fixed by its seed: it repeats
exactly across runs and ``PYTHONHASHSEED`` values and involves no wall
clock, so it gates exactly where a timing could only trend.  The test runs a
small 4-site, 8-class flat cluster to idle under :mod:`cProfile` and counts,
per commit, two kinds of calls:

* calls whose frame lies in the ``repro`` package, and
* calls of *generated constructors*: the ``__init__`` of a dataclass and
  the ``__new__`` of a named tuple are compiled from a string, so their
  frames carry the file name ``<string>`` and no ``repro`` path.

The counts come from ``cProfile.Profile.getstats()``, which has one entry
per code object.  ``pstats`` keys its rows by (file, line, name), every
generated constructor shares one key, and ``Profile.snapshot_stats``
overwrites rows with an equal key instead of adding them up, so a
``pstats`` sum would undercount them by a varying amount.  Each count fails
the test when it exceeds its measured value by more than 5 %.

Measured with ``PYTHONPATH=src python tests/test_hot_path_budget.py``:
609.4 ``repro`` calls and 32.1 generated-constructor calls per commit on
CPython 3.11, under ``PYTHONHASHSEED`` 0 and 1 alike.  The pass that
introduced this budget took ``repro`` calls from 1 101.0 to 630.5; the pass
that stopped building frozen records nobody keeps took them to 609.4 and
generated-constructor calls from 48.1 to 32.1.  A change that adds
per-commit work must raise the measured value and say why; one that
removes work should lower it.
"""

from __future__ import annotations

import cProfile
import os

import repro
from repro import ClusterConfig, ReplicatedDatabase
from repro.workloads import (
    WorkloadGenerator,
    WorkloadSpec,
    build_conflict_map,
    build_initial_data,
    build_partitioned_registry,
)

MEASURED_CALLS_PER_COMMIT = 609.4
MEASURED_GENERATED_CALLS_PER_COMMIT = 32.1
TOLERANCE = 1.05

_PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
#: ``co_filename`` of code compiled by ``dataclasses`` and ``collections.namedtuple``.
_GENERATED_FILENAME = "<string>"


def calls_per_commit(seed: int = 11) -> tuple:
    """Run the budget cluster under cProfile.

    Returns ``(repro calls per commit, generated-constructor calls per
    commit, commits)``.
    """
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


def test_run_phase_calls_per_commit_stay_within_budget():
    repro_calls, generated_calls, commits = calls_per_commit()
    assert commits == 240
    assert repro_calls <= MEASURED_CALLS_PER_COMMIT * TOLERANCE, (
        f"{repro_calls:.1f} repro calls per commit exceeds the budget of "
        f"{MEASURED_CALLS_PER_COMMIT} x {TOLERANCE}"
    )
    assert generated_calls <= MEASURED_GENERATED_CALLS_PER_COMMIT * TOLERANCE, (
        f"{generated_calls:.1f} generated-constructor calls per commit exceeds the "
        f"budget of {MEASURED_GENERATED_CALLS_PER_COMMIT} x {TOLERANCE}"
    )


if __name__ == "__main__":
    repro_value, generated_value, committed = calls_per_commit()
    print(f"{repro_value:.1f} repro calls per commit over {committed} commits")
    print(f"{generated_value:.1f} generated-constructor calls per commit")
