"""Benchmark: claim C3 — OTP vs. commercial-style asynchronous replication.

The paper's introduction: "While most systems achieve performance by using
asynchronous replication mechanisms [...] our solution offers comparable
performance and at the same time maintains global consistency."  The
benchmark applies the same workload to the OTP cluster and to the lazy
baseline and asserts exactly that shape: lazy is faster (it skips the
coordination entirely) but loses updates, while OTP stays within a small
constant latency overhead and remains 1-copy-serializable.
"""

import pytest

from repro.harness import run_experiment

pytestmark = pytest.mark.bench


def run_lazy_comparison():
    return run_experiment("lazy", updates_per_site=40)


def test_otp_is_comparable_to_lazy_but_consistent():
    result = run_lazy_comparison()
    rows = {row["system"]: row for row in result.rows}
    otp, lazy = rows["otp"], rows["lazy"]

    # Both systems commit the same client transactions.
    assert otp["committed"] == lazy["committed"]

    # Lazy replication is faster (it does not coordinate before commit)...
    assert lazy["mean_latency_ms"] <= otp["mean_latency_ms"]
    # ...but OTP stays within a few milliseconds of it ("comparable
    # performance"): the overhead is bounded by the ordering delay plus
    # queueing, far from the order-of-magnitude gap of synchronous 2PC-style
    # schemes.
    assert otp["mean_latency_ms"] - lazy["mean_latency_ms"] < 10.0

    # The consistency difference: lazy replication loses updates under
    # conflicting multi-site writes, OTP never does.
    assert lazy["lost_updates"] > 0
    assert otp["lost_updates"] == 0
    assert otp["one_copy_serializable"]
    assert not lazy["one_copy_serializable"]
