"""Benchmark: claim C2 — order mismatches only cost work when transactions conflict.

Section 3.2 of the paper: a discrepancy between the tentative and the
definitive order causes an abort/re-execution only for *conflicting*
transactions, so with low to medium conflict rates the two orders may differ
considerably without high abort rates.  The benchmark sweeps the number of
conflict classes under a bursty submission pattern and asserts that the
mismatch rate stays (roughly) constant while aborts decrease.
"""

import pytest

from repro.harness import run_experiment

pytestmark = pytest.mark.bench

CLASS_COUNTS = (1, 4, 16)


def run_conflicts():
    return run_experiment("conflicts", class_count=CLASS_COUNTS, updates_per_site=30)


def test_aborts_decrease_with_conflict_rate():
    result = run_conflicts()
    rows = {row["class_count"]: row for row in result.rows}

    # The order-mismatch rate is a property of the network, not of the
    # conflict classes: it stays in the same ballpark across the sweep.
    mismatches = [row["mismatch_pct"] for row in result.rows]
    assert max(mismatches) - min(mismatches) < 20.0

    # Aborts fall as the conflict rate falls (more classes).
    assert rows[1]["reorder_aborts"] >= rows[4]["reorder_aborts"] >= rows[16]["reorder_aborts"]
    assert rows[16]["reorder_aborts"] < rows[1]["reorder_aborts"]

    # Every configuration stays 1-copy-serializable.
    assert all(row["one_copy_ok"] for row in result.rows)
