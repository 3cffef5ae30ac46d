"""Benchmark: opt/TO divergence grows with the WAN link-delay spread.

Spontaneous total order — the property the paper's optimism banks on — is a
product of LAN symmetry: every receiver hears a multicast at almost the same
instant.  The region-aware :class:`~repro.network.latency.GeoTopology`
breaks that symmetry deliberately, and this benchmark gates the resulting
trade-off curve: as the cross-region round-trip spread grows, the fraction
of messages opt-delivered at a different position than their definitive one
(the work the CC8 reordering rule must repair) must rise monotonically,
while 1-copy-serializability holds in every cell — divergence degrades the
optimism payoff, never correctness.
"""

import pytest

from repro.harness import run_experiment

pytestmark = pytest.mark.bench

CROSS_BASE_MS = (0.5, 2.0, 10.0)
UPDATES_PER_SITE = 20


def run_geo_divergence():
    return run_experiment(
        "geo", cross_base_ms=CROSS_BASE_MS, updates_per_site=UPDATES_PER_SITE
    )


def test_divergence_grows_with_rtt_spread():
    result = run_geo_divergence()

    # Correctness is non-negotiable in every cell of the sweep.
    for row in result.rows:
        assert row["one_copy_ok"], row
        assert row["committed"] > 0, row

    # The sweep is ordered by cross-region delay, so the spread must be
    # strictly increasing; divergence must follow it monotonically and the
    # widest spread must diverge strictly more than the narrowest.
    spreads = result.column("rtt_spread_ms")
    divergences = result.column("opt_to_divergence_pct")
    assert all(a < b for a, b in zip(spreads, spreads[1:])), spreads
    assert all(a <= b for a, b in zip(divergences, divergences[1:])), divergences
    assert divergences[-1] > divergences[0], divergences

    # The sweep is a pure function of the seed, so the span is pinned exactly.
    assert divergences[-1] - divergences[0] == pytest.approx(
        53.33333333333333, rel=1e-9
    )
