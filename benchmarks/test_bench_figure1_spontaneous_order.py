"""Benchmark: paper Figure 1 — spontaneous total order vs. broadcast interval.

Regenerates the paper's only measured figure: the percentage of multicast
messages that arrive spontaneously totally ordered at all 4 sites, as a
function of the interval between broadcasts.  The paper reports roughly 99 %
at a 4 ms interval and a drop into the 80s as the interval approaches zero;
the benchmark asserts the same shape (monotone-ish increase, high plateau at
4 ms, visibly lower value at the smallest interval).

The simulation is a pure function of the seed, so the percentage per
interval is pinned exactly: any drift is a code change, not machine noise.
"""

import pytest

from repro.harness import run_experiment

pytestmark = pytest.mark.bench

INTERVALS_MS = (0.1, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0)
MESSAGES_PER_SITE = 120
SEED = 1
#: Spontaneously ordered percentage per interval at ``SEED``.
EXPECTED_ORDERED_PCT = {
    0.1: 75.625,
    0.5: 75.625,
    1.0: 81.45833333333333,
    2.0: 97.91666666666666,
    3.0: 99.58333333333333,
    4.0: 100.0,
    5.0: 100.0,
}


def run_figure1():
    return run_experiment(
        "figure1",
        interval_ms=INTERVALS_MS,
        messages_per_site=MESSAGES_PER_SITE,
        seed=SEED,
    )


def test_figure1_spontaneous_order():
    result = run_figure1()
    percentages = dict(
        zip(result.column("interval_ms"), result.column("spontaneously_ordered_pct"))
    )
    divergences = dict(
        zip(result.column("interval_ms"), result.column("opt_to_divergence_pct"))
    )

    # Shape of the paper's Figure 1: high probability of spontaneous total
    # order at a 4-5 ms interval, lower near zero, monotone within noise.
    assert percentages[4.0] >= 95.0
    assert percentages[5.0] >= 95.0
    assert percentages[0.1] < percentages[4.0]
    assert percentages[0.1] >= 50.0  # still mostly ordered, as on a real LAN
    assert percentages[1.0] <= percentages[4.0] + 1e-9

    # Divergence is the complement story: rare at wide intervals, visible
    # near zero — exactly when CC8 reordering work would appear.
    assert divergences[4.0] <= 5.0
    assert divergences[0.1] >= divergences[4.0]

    assert percentages == pytest.approx(EXPECTED_ORDERED_PCT, rel=1e-9)
