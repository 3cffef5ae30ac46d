"""Benchmark (ablation): throughput/latency as the number of replicas grows.

The scalability problems of atomic broadcast motivate the paper (Section 1).
This ablation measures throughput and mean commit latency of OTP and of the
conservative baseline for growing cluster sizes, asserting that OTP's latency
advantage persists as sites are added and that correctness holds throughout.
"""

import pytest

from repro.harness import run_experiment

pytestmark = pytest.mark.bench

SITE_COUNTS = (2, 4, 6)


def run_scalability():
    return run_experiment("scalability", site_count=SITE_COUNTS, updates_per_site=20)


def test_otp_advantage_persists_as_sites_are_added():
    result = run_scalability()

    for row in result.rows:
        assert row["otp_latency_ms"] < row["conservative_latency_ms"]
        assert row["otp_throughput_tps"] > 0.0
        assert row["one_copy_ok"]

    # The offered load grows with the number of sites (every site submits the
    # same number of transactions), so aggregate throughput must grow too.
    throughputs = result.column("otp_throughput_tps")
    assert throughputs[-1] > throughputs[0]
