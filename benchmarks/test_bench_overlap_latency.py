"""Benchmark: claim C1 — overlapping the ordering phase with execution.

The core performance claim of the paper (Sections 1 and 3): by executing
transactions between Opt-delivery and TO-delivery, the latency of the atomic
broadcast coordination is hidden behind transaction execution.  The benchmark
runs the same workload on the OTP cluster and on the conservative baseline
(execution starts only after the definitive order is known) and asserts that
OTP's mean commit latency is lower by roughly the ordering delay.
"""

import pytest

from repro.harness import run_experiment

pytestmark = pytest.mark.bench

EXECUTION_TIMES_MS = (0.5, 2.0, 6.0)


def run_overlap():
    return run_experiment(
        "overlap", execution_ms=EXECUTION_TIMES_MS, updates_per_site=25
    )


def test_overlap_hides_ordering_latency():
    result = run_overlap()

    for row in result.rows:
        # OTP must win on every execution-time setting...
        assert row["otp_latency_ms"] < row["conservative_latency_ms"]
        # ...and the saving should be a substantial part of the ordering
        # delay once execution time is comparable to it (>= 1 ms here).
        if row["execution_ms"] >= 1.0:
            assert row["latency_saving_ms"] >= 0.5 * row["ordering_delay_ms"]
        # Correctness is never traded away.
        assert row["one_copy_ok"]
