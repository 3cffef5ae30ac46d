"""Benchmark: admission control bounds tail latency past the saturation knee.

Every other benchmark drives a closed-loop workload, which can never offer
more load than the system completes.  This one sweeps an *open-loop*
Poisson arrival schedule (:mod:`repro.workloads.arrivals`) across the
saturation knee of the OTP scheduler — ~2000 tps for 4 conflict classes at
2 ms serial execution — with the per-site admission valve off and on, and
gates the acceptance criteria:

* below and at the knee the valve is invisible: goodput with admission on
  is no worse than off (nothing sheds, the schedules are seed-identical);
* past the knee admission keeps p99 client latency bounded (within a small
  multiple of its at-the-knee value, and far below the unbounded-queue
  p99 of the admission-off run) while shedding the arrivals the system
  could never finish inside the offered-load window anyway;
* without admission the open-loop failure mode shows: p99 and queue depth
  grow monotonically with offered load past the knee;
* 1-copy-serializability holds in every cell — shedding refuses work, it
  never corrupts admitted work.
"""

import pytest

from repro.harness import run_experiment

pytestmark = pytest.mark.bench

#: Offered-load grid (updates/second) straddling the ~2000 tps knee.
OFFERED_TPS = (600.0, 1200.0, 1800.0, 2400.0, 3600.0)
KNEE_TPS = 2000.0
HIGH_WATERMARK = 48
LOW_WATERMARK = 24


def run_overload_sweep():
    return run_experiment(
        "overload",
        offered_tps=OFFERED_TPS,
        high_watermark=HIGH_WATERMARK,
        low_watermark=LOW_WATERMARK,
    )


def _rows_by_mode(result, mode):
    return {
        row["offered_tps"]: row for row in result.rows if row["admission"] == mode
    }


def test_admission_bounds_tail_latency_past_the_knee():
    result = run_overload_sweep()

    on = _rows_by_mode(result, "on")
    off = _rows_by_mode(result, "off")
    assert set(on) == set(off) == set(OFFERED_TPS)

    # Correctness is non-negotiable in every cell of the sweep.
    for row in result.rows:
        assert row["one_copy_ok"], row
        assert row["committed"] > 0, row

    below_knee = [tps for tps in OFFERED_TPS if tps <= KNEE_TPS]
    past_knee = [tps for tps in OFFERED_TPS if tps > KNEE_TPS]
    assert below_knee and past_knee, "the grid must straddle the knee"
    knee = max(below_knee)

    # Gate 1: at (and below) the knee the valve is invisible — goodput with
    # admission on is no worse than off, and nothing sheds.
    for tps in below_knee:
        assert on[tps]["goodput_tps"] >= off[tps]["goodput_tps"], (tps, on[tps])
        assert on[tps]["shed"] == 0, (tps, on[tps])

    # Gate 2: past the knee admission keeps p99 bounded — within 2.5x of its
    # at-the-knee value and at most 0.6x the unbounded-queue p99 — while
    # goodput stays within 10% of the admission-off run.
    for tps in past_knee:
        assert on[tps]["p99_ms"] <= 2.5 * on[knee]["p99_ms"], (tps, on[tps])
        assert on[tps]["p99_ms"] <= 0.6 * off[tps]["p99_ms"], (tps, on[tps])
        assert on[tps]["goodput_tps"] >= 0.9 * off[tps]["goodput_tps"], (tps, on[tps])
        assert on[tps]["shed"] > 0, (tps, on[tps])

    # Gate 3: without admission the open-loop failure mode is visible — p99
    # and the queue high-water mark keep growing with offered load.
    ordered = [off[tps] for tps in sorted([knee, *past_knee])]
    for previous, current in zip(ordered, ordered[1:]):
        assert current["p99_ms"] > previous["p99_ms"], (previous, current)
        assert current["max_queue_depth"] > previous["max_queue_depth"]

    worst = max(past_knee)
    # Virtual-time metrics are deterministic, so the knee and saturated-tail
    # numbers are pinned exactly.
    assert on[knee]["goodput_tps"] == pytest.approx(1800.0, rel=1e-9)
    assert on[worst]["goodput_tps"] == pytest.approx(1952.0, rel=1e-9)
    assert on[worst]["p99_ms"] == pytest.approx(34.60465858798089, rel=1e-9)
