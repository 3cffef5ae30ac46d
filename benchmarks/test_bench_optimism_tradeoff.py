"""Benchmark: claim C5 — the optimistic/conservative trade-off.

Section 2.1 of the paper notes a trade-off between optimistic and
conservative decisions: optimism pays off when spontaneous total order is
likely (LAN conditions) and costs undo/redo work when it is not.  The
benchmark sweeps the per-receiver network jitter — the knob that controls the
spontaneous-order probability — and asserts that mismatches and aborts grow
with the jitter while correctness is never affected.
"""

import pytest

from repro.harness import run_experiment

pytestmark = pytest.mark.bench

JITTER_US = (30.0, 400.0, 3000.0)


def run_tradeoff():
    return run_experiment("tradeoff", receiver_jitter_us=JITTER_US, updates_per_site=25)


def test_optimism_pays_on_lans_and_costs_on_noisy_networks():
    result = run_tradeoff()
    rows = {row["receiver_jitter_us"]: row for row in result.rows}

    # Mismatch rate and aborts grow as spontaneous order degrades.
    assert rows[30.0]["mismatch_pct"] < rows[400.0]["mismatch_pct"] < rows[3000.0]["mismatch_pct"]
    assert rows[30.0]["reorder_aborts"] <= rows[3000.0]["reorder_aborts"]

    # On a LAN-like network the optimistic protocol wins on latency and the
    # penalty of wrong guesses is negligible.
    assert rows[30.0]["otp_advantage_ms"] > 0.0
    assert rows[30.0]["reorder_aborts"] <= 5

    # Correctness never depends on the quality of the optimistic guess.
    assert all(row["one_copy_ok"] for row in result.rows)
