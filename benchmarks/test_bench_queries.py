"""Benchmark: claim C4 — snapshot queries do not delay update transactions.

Section 5 of the paper: queries execute locally over multi-version snapshots,
may span several conflict classes, and neither block update transactions nor
break 1-copy-serializability.  The benchmark sweeps the per-site query load
and asserts that update-commit latency stays flat while query response time
stays bounded.
"""

import pytest

from repro.harness import run_experiment

pytestmark = pytest.mark.bench

QUERY_LOADS = (0, 20, 50)


def run_queries():
    return run_experiment("queries", queries_per_site=QUERY_LOADS, updates_per_site=20)


def test_queries_do_not_delay_updates():
    result = run_queries()
    rows = {row["queries_per_site"]: row for row in result.rows}

    baseline_latency = rows[0]["update_latency_ms"]
    for load in QUERY_LOADS[1:]:
        row = rows[load]
        # Update latency unaffected by the query load (within 15%).
        assert row["update_latency_ms"] <= baseline_latency * 1.15
        # Queries actually ran and completed.
        assert row["queries_completed"] == load * 4
        assert row["query_latency_ms"] > 0.0
        assert row["one_copy_ok"]
