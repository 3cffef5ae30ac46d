"""Benchmark: parallel sweep executor over the factorial design layer.

Experiment throughput — not single-run kernel speed — is the wall-clock
bottleneck of the reproduction: sweeps are embarrassingly parallel but used
to run serially in one process.  Every registered experiment is a design run
by the one sweep executor, so this bench gates the property that makes the
parallel engine safe to rely on for all of them (the merged result of a
parallel sweep is **identical** to the serial run: same rows, same order,
same values) and pins the batching sweep's deterministic shape exactly.  The
wall-clock speedup is machine-dependent, so it is measured where host
performance is: the ``harness.sweep_speedup_jobs2`` probe of
``python -m bench`` (``bench/README.md``).
"""

import pytest

from repro.harness import EXPERIMENTS, Design, SweepExecutor, run_experiment

pytestmark = pytest.mark.bench

PARALLEL_JOBS = 2


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_parallel_sweep_equals_serial(name):
    """Tier-1 gate: each experiment's fast grid is identical at jobs 1 and 2."""
    serial = run_experiment(name, fast=True, jobs=1)
    parallel = run_experiment(name, fast=True, jobs=PARALLEL_JOBS)

    # The serial == parallel equivalence guarantee, cell by cell: same
    # columns, same row order, same values — bit-identical tables.
    assert parallel.columns == serial.columns
    assert parallel.rows == serial.rows
    assert parallel.format_table() == serial.format_table()
    assert parallel.to_markdown() == serial.to_markdown()

    if name == "batching":
        # Structural sanity: the full grid ran (2 windows x 2 intervals) and
        # every cell kept its correctness verdicts.
        assert len(parallel.rows) == 4
        assert all(row["one_copy_ok"] and row["broadcast_ok"] for row in parallel.rows)
        assert sum(row["committed"] for row in parallel.rows) == 480


def test_parallel_probe_sweep_scales_without_reordering():
    """A pure-probe design keeps spec order under heavy fan-out."""
    design = Design(
        name="probe_fanout",
        factors={"alpha": tuple(range(8)), "beta": ("x", "y")},
        seeds=range(4),
    )
    report = SweepExecutor(jobs=PARALLEL_JOBS).run(
        design, "repro.harness.cells:seed_probe_cell"
    )
    assert report.ok
    rows = report.require_rows()
    assert len(rows) == 64
    assert [row["alpha"] for row in rows] == [
        spec.factors["alpha"] for spec in design.expand()
    ]
