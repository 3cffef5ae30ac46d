"""Tests for the atomic broadcast in optimistic and conservative delivery mode.

Includes checks of the five properties of Section 2.1 of the paper via the
verification layer, property-based tests over random traffic patterns, and
the equivalence of the two delivery modes' definitive orders.
"""

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BatchingConfig, ClusterConfig, ReplicatedDatabase
from repro.broadcast import (
    OptimisticAtomicBroadcast,
    tentative_vs_definitive_mismatch,
)
from repro.errors import BroadcastError
from repro.metrics.stats import mean
from repro.network import LanMulticastLatency, NetworkTransport, UniformLatency
from repro.network.dispatcher import SiteDispatcher
from repro.simulation import SimulationKernel
from repro.verification import check_broadcast_properties
from repro.workloads import WorkloadGenerator, WorkloadSpec
from repro.workloads.procedures import (
    build_conflict_map,
    build_initial_data,
    build_partitioned_registry,
)


def build_group(protocol, site_count=4, seed=0, latency=None, **kwargs):
    """Build a group of endpoints in ``"optimistic"``/``"conservative"`` mode."""
    kernel = SimulationKernel(seed=seed)
    transport = NetworkTransport(kernel, latency or LanMulticastLatency())
    sites = [f"N{index + 1}" for index in range(site_count)]
    endpoints = {}
    for site in sites:
        dispatcher = SiteDispatcher(transport, site)
        endpoints[site] = OptimisticAtomicBroadcast(
            kernel,
            transport,
            dispatcher,
            site,
            coordinator_site=sites[0],
            opt_deliver_on_receipt=protocol == "optimistic",
            **kwargs,
        )
    return kernel, transport, endpoints


def broadcast_burst(kernel, endpoints, per_site=10, spacing=0.001):
    """Every site broadcasts ``per_site`` messages with the given spacing."""
    expected = []
    for index in range(per_site):
        for site, endpoint in endpoints.items():
            def send(endpoint=endpoint, index=index, site=site):
                expected.append(endpoint.broadcast({"from": site, "n": index}))

            kernel.schedule(index * spacing + 0.0001, send)
    kernel.run_until_idle()
    return expected


class TestConservativeDelivery:
    def test_all_sites_to_deliver_everything_in_same_order(self):
        kernel, transport, endpoints = build_group("conservative")
        expected = broadcast_burst(kernel, endpoints, per_site=8)
        orders = [tuple(endpoint.to_delivery_log) for endpoint in endpoints.values()]
        assert all(order == orders[0] for order in orders)
        assert set(orders[0]) == set(expected)

    def test_opt_and_to_delivery_are_simultaneous(self):
        kernel, transport, endpoints = build_group("conservative")
        broadcast_burst(kernel, endpoints, per_site=5)
        for endpoint in endpoints.values():
            for message_id in endpoint.to_delivery_log:
                record = endpoint.message(message_id)
                assert record.ordering_delay == pytest.approx(0.0)

    def test_tentative_order_equals_definitive_order(self):
        kernel, transport, endpoints = build_group("conservative")
        broadcast_burst(kernel, endpoints, per_site=5)
        for endpoint in endpoints.values():
            assert endpoint.opt_delivery_log == endpoint.to_delivery_log

    def test_properties_hold(self):
        kernel, transport, endpoints = build_group("conservative")
        expected = broadcast_burst(kernel, endpoints, per_site=6)
        report = check_broadcast_properties(endpoints, expected_broadcasts=expected)
        report.raise_if_violated()

    def test_is_coordinator_flag(self):
        kernel, transport, endpoints = build_group("conservative")
        assert endpoints["N1"].is_coordinator
        assert not endpoints["N2"].is_coordinator


class TestOptimisticAtomicBroadcast:
    def test_opt_delivery_precedes_to_delivery(self):
        kernel, transport, endpoints = build_group("optimistic")
        broadcast_burst(kernel, endpoints, per_site=10)
        for endpoint in endpoints.values():
            for message_id in endpoint.to_delivery_log:
                record = endpoint.message(message_id)
                assert record.opt_delivered_at is not None
                assert record.to_delivered_at is not None
                assert record.opt_delivered_at <= record.to_delivered_at

    def test_non_coordinator_sites_pay_an_ordering_delay(self):
        kernel, transport, endpoints = build_group("optimistic")
        broadcast_burst(kernel, endpoints, per_site=10)
        delays = [
            endpoints["N3"].message(message_id).ordering_delay
            for message_id in endpoints["N3"].to_delivery_log
        ]
        assert all(delay >= 0.0 for delay in delays)
        assert any(delay > 0.0 for delay in delays)

    def test_global_order_identical_at_all_sites(self):
        kernel, transport, endpoints = build_group("optimistic")
        expected = broadcast_burst(kernel, endpoints, per_site=12, spacing=0.0005)
        orders = [tuple(endpoint.to_delivery_log) for endpoint in endpoints.values()]
        assert all(order == orders[0] for order in orders)
        assert set(orders[0]) == set(expected)

    def test_properties_hold_under_bursty_traffic(self):
        kernel, transport, endpoints = build_group("optimistic")
        expected = broadcast_burst(kernel, endpoints, per_site=15, spacing=0.0002)
        report = check_broadcast_properties(endpoints, expected_broadcasts=expected)
        report.raise_if_violated()

    def test_tentative_orders_may_differ_but_definitive_do_not(self):
        kernel, transport, endpoints = build_group(
            "optimistic", latency=LanMulticastLatency(receiver_jitter_mean=0.0005)
        )
        broadcast_burst(kernel, endpoints, per_site=20, spacing=0.0005)
        tentative_orders = {tuple(e.opt_delivery_log) for e in endpoints.values()}
        definitive_orders = {tuple(e.to_delivery_log) for e in endpoints.values()}
        assert len(definitive_orders) == 1
        # With this much jitter the tentative orders essentially never agree
        # across all four sites.
        assert len(tentative_orders) > 1

    def test_mismatch_fraction_increases_with_jitter(self):
        fractions = []
        for jitter in (0.00002, 0.0008):
            kernel, transport, endpoints = build_group(
                "optimistic",
                seed=3,
                latency=LanMulticastLatency(receiver_jitter_mean=jitter),
            )
            broadcast_burst(kernel, endpoints, per_site=25, spacing=0.001)
            site = endpoints["N4"]
            fractions.append(
                tentative_vs_definitive_mismatch(site.opt_delivery_log, site.to_delivery_log)
            )
        assert fractions[0] < fractions[1]

    def test_unknown_ordering_mode_rejected(self):
        kernel = SimulationKernel()
        transport = NetworkTransport(kernel, LanMulticastLatency())
        dispatcher = SiteDispatcher(transport, "N1")
        with pytest.raises(BroadcastError):
            OptimisticAtomicBroadcast(
                kernel, transport, dispatcher, "N1",
                coordinator_site="N1", ordering_mode="bogus",
            )

    def test_invalid_voting_timeout_rejected(self):
        kernel = SimulationKernel()
        transport = NetworkTransport(kernel, LanMulticastLatency())
        dispatcher = SiteDispatcher(transport, "N1")
        with pytest.raises(BroadcastError):
            OptimisticAtomicBroadcast(
                kernel, transport, dispatcher, "N1",
                coordinator_site="N1", voting_timeout=0.0,
            )

    def test_coordinator_handover_confirms_outstanding_messages(self):
        kernel, transport, endpoints = build_group("optimistic", site_count=3)
        # Send a burst, then pretend the coordinator changed to N2 and make
        # sure new messages still get confirmed by the new coordinator.
        broadcast_burst(kernel, endpoints, per_site=3)
        for endpoint in endpoints.values():
            endpoint.set_coordinator("N2")
        more = [endpoints["N3"].broadcast({"late": index}) for index in range(3)]
        kernel.run_until_idle()
        for endpoint in endpoints.values():
            for message_id in more:
                assert message_id in endpoint.to_delivery_log


class TestVotingMode:
    def test_voting_mode_reaches_same_definitive_order(self):
        kernel, transport, endpoints = build_group(
            "optimistic", ordering_mode="voting", voting_timeout=0.02
        )
        expected = broadcast_burst(kernel, endpoints, per_site=8)
        orders = [tuple(endpoint.to_delivery_log) for endpoint in endpoints.values()]
        assert all(order == orders[0] for order in orders)
        assert set(orders[0]) == set(expected)

    def test_voting_mode_records_fast_and_conservative_paths(self):
        kernel, transport, endpoints = build_group(
            "optimistic", ordering_mode="voting", voting_timeout=0.02
        )
        broadcast_burst(kernel, endpoints, per_site=10, spacing=0.002)
        coordinator = endpoints["N1"]
        total = coordinator.fast_path_confirmations + coordinator.conservative_confirmations
        assert total == len(coordinator.to_delivery_log)
        assert coordinator.fast_path_confirmations > 0

    def test_voting_mode_has_higher_ordering_delay_than_sequencer_mode(self):
        def mean_delay(mode):
            kernel, transport, endpoints = build_group(
                "optimistic", ordering_mode=mode, seed=9
            )
            broadcast_burst(kernel, endpoints, per_site=10, spacing=0.002)
            delays = [
                endpoints["N2"].message(mid).ordering_delay
                for mid in endpoints["N2"].to_delivery_log
            ]
            return sum(delays) / len(delays)

        assert mean_delay("voting") > mean_delay("sequencer")


class TestPropertyBased:
    @given(
        per_site=st.integers(min_value=1, max_value=8),
        spacing_us=st.integers(min_value=50, max_value=3000),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=20, deadline=None)
    def test_global_order_and_agreement_hold_for_random_traffic(
        self, per_site, spacing_us, seed
    ):
        kernel, transport, endpoints = build_group("optimistic", seed=seed, site_count=3)
        expected = broadcast_burst(
            kernel, endpoints, per_site=per_site, spacing=spacing_us / 1_000_000.0
        )
        report = check_broadcast_properties(endpoints, expected_broadcasts=expected)
        assert report.ok, report.violations


def origin_ranks(message_ids):
    """Rewrite ``m:<origin>:<n>`` ids as ``(origin, rank among the origin's ids)``.

    Message ids are drawn from a process-global counter, so two runs in one
    process never share ids; the per-origin rank is what identifies a message.
    """
    parsed = [
        (origin, int(counter))
        for _, origin, counter in (message_id.split(":") for message_id in message_ids)
    ]
    seen, rank = defaultdict(int), {}
    for origin, counter in sorted(set(parsed)):
        rank[origin, counter] = seen[origin]
        seen[origin] += 1
    return [(origin, rank[origin, counter]) for origin, counter in parsed]


class TestDeliveryModesOrderIdentically:
    """Conservative delivery is the optimistic protocol delivering later: on
    the same seed and pre-planned workload both reach the same definitive
    order and contents, and differ in delivery time only."""

    SPEC = WorkloadSpec(class_count=6, updates_per_site=60, update_interval=0.002)

    def run(self, broadcast, **config):
        cluster = ReplicatedDatabase(
            ClusterConfig(site_count=4, seed=21, broadcast=broadcast, **config),
            build_partitioned_registry(self.SPEC),
            conflict_map=build_conflict_map(self.SPEC),
            initial_data=build_initial_data(self.SPEC),
        )
        WorkloadGenerator(self.SPEC).apply(cluster)
        cluster.run_until_idle()
        return cluster

    @pytest.mark.parametrize(
        "config",
        [
            {},
            {"loss_probability": 0.02},
            {"batching": BatchingConfig(window=0.002), "medium_frame_time": 2e-4},
        ],
        ids=["plain", "lossy", "batched"],
    )
    def test_same_definitive_order_and_contents(self, config):
        optimistic = self.run("optimistic", **config)
        conservative = self.run("conservative", **config)
        for site in optimistic.site_ids():
            fast = optimistic.broadcast_endpoint(site)
            slow = conservative.broadcast_endpoint(site)
            assert len(fast.to_delivery_log) == 4 * self.SPEC.updates_per_site
            assert origin_ranks(fast.to_delivery_log) == origin_ranks(slow.to_delivery_log)
            assert slow.opt_delivery_log == slow.to_delivery_log
            assert (
                optimistic.replica(site).database_contents()
                == conservative.replica(site).database_contents()
            )
        assert optimistic.database_divergence() == conservative.database_divergence() == {}
        assert mean(optimistic.all_client_latencies()) < mean(
            conservative.all_client_latencies()
        )
