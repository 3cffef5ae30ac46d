"""Benchmark: parallel sweep executor over the factorial design layer.

Experiment throughput — not single-run kernel speed — is the wall-clock
bottleneck of the reproduction: sweeps are embarrassingly parallel but used
to run serially in one process.  This bench gates the property that makes
the parallel engine safe to rely on (the merged result of a parallel sweep
is **identical** to the serial run: same rows, same order, same values) and
pins the sweep's deterministic shape exactly.  The wall-clock speedup is
machine-dependent, so it is measured where host performance is: the
``harness.sweep_speedup_jobs2`` probe of ``python -m bench``
(``bench/README.md``).
"""

import pytest

from repro.harness import Design, SweepExecutor, batching_ablation_experiment

pytestmark = pytest.mark.bench

#: Fast batching grid (the runner registry's CI sizing): 2 windows x 2 rates.
BATCHING_GRID = dict(
    batch_windows_ms=(None, 2.0),
    submission_intervals_ms=(1.0, 0.25),
    updates_per_site=30,
)
PARALLEL_JOBS = 2


def test_parallel_sweep_equals_serial():
    """Tier-1 gate: serial and parallel batching ablations are identical."""
    serial = batching_ablation_experiment(jobs=1, **BATCHING_GRID)
    parallel = batching_ablation_experiment(jobs=PARALLEL_JOBS, **BATCHING_GRID)

    # The serial == parallel equivalence guarantee, cell by cell: same
    # columns, same row order, same values — bit-identical tables.
    assert parallel.columns == serial.columns
    assert parallel.rows == serial.rows
    assert parallel.format_table() == serial.format_table()
    assert parallel.to_markdown() == serial.to_markdown()

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
