"""Tests for the spontaneous-order measurement (paper Figure 1 machinery)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.spontaneous import (
    PROBE_KIND,
    PeriodicMulticastSource,
    order_agreement,
    receive_sequences,
    tentative_vs_definitive_mismatch,
)
from repro.errors import BroadcastError
from repro.network import ConstantLatency, LanMulticastLatency, NetworkTransport
from repro.simulation import SimulationKernel


def run_probe(interval, site_count=4, per_site=30, seed=0, latency=None, frame_time=0.0):
    kernel = SimulationKernel(seed=seed)
    transport = NetworkTransport(
        kernel,
        latency or LanMulticastLatency(),
        record_deliveries=True,
        medium_frame_time=frame_time,
    )
    sites = [f"N{index + 1}" for index in range(site_count)]
    for site in sites:
        transport.register_site(site, lambda envelope: None)
    for site in sites:
        PeriodicMulticastSource(
            kernel, transport, site, interval=interval, message_count=per_site
        ).start()
    kernel.run_until_idle()
    return transport


class TestPeriodicMulticastSource:
    def test_sends_exactly_message_count_messages(self):
        transport = run_probe(interval=0.001, site_count=2, per_site=10)
        assert transport.stats.multicasts_sent == 20

    def test_invalid_parameters_rejected(self):
        kernel = SimulationKernel()
        transport = NetworkTransport(kernel, ConstantLatency())
        transport.register_site("N1", lambda envelope: None)
        with pytest.raises(BroadcastError):
            PeriodicMulticastSource(kernel, transport, "N1", interval=-1.0, message_count=5)
        with pytest.raises(BroadcastError):
            PeriodicMulticastSource(kernel, transport, "N1", interval=0.001, message_count=0)


class TestReceiveSequences:
    def test_sequences_grouped_by_receiver(self):
        transport = run_probe(interval=0.002, site_count=3, per_site=5)
        sequences = receive_sequences(transport.delivery_log)
        assert set(sequences) == {"N1", "N2", "N3"}
        assert all(len(sequence) == 15 for sequence in sequences.values())

    def test_kind_filter(self):
        transport = run_probe(interval=0.002, site_count=2, per_site=5)
        probes = list(transport.delivery_log)
        others = [record._replace(kind="other") for record in probes]
        assert receive_sequences(others) == {}
        assert receive_sequences(probes + others) == receive_sequences(probes)


class TestOrderAgreement:
    def test_identical_sequences_are_fully_ordered(self):
        sequences = {"N1": ["a", "b", "c"], "N2": ["a", "b", "c"]}
        report = order_agreement(sequences)
        assert report.same_position_fraction == 1.0
        assert report.pairwise_agreement_fraction == 1.0

    def test_single_swap_detected(self):
        sequences = {"N1": ["a", "b", "c"], "N2": ["b", "a", "c"]}
        report = order_agreement(sequences)
        assert report.message_count == 3
        assert report.same_position_fraction == pytest.approx(1.0 / 3.0)
        assert report.mismatches_by_site["N2"] == 2

    def test_messages_not_received_everywhere_are_ignored(self):
        sequences = {"N1": ["a", "b", "c"], "N2": ["a", "c"]}
        report = order_agreement(sequences)
        assert report.message_count == 2
        assert report.same_position_fraction == 1.0

    def test_empty_input(self):
        report = order_agreement({})
        assert report.message_count == 0
        assert report.same_position_fraction == 1.0

    def test_constant_latency_gives_perfect_order(self):
        transport = run_probe(
            interval=0.002, latency=ConstantLatency(0.001), per_site=10
        )
        report = order_agreement(receive_sequences(transport.delivery_log))
        assert report.same_position_fraction == 1.0

    def test_larger_interval_improves_spontaneous_order(self):
        slow = run_probe(interval=0.004, per_site=60, seed=2, frame_time=0.0002)
        fast = run_probe(interval=0.0001, per_site=60, seed=2, frame_time=0.0002)
        slow_report = order_agreement(receive_sequences(slow.delivery_log))
        fast_report = order_agreement(receive_sequences(fast.delivery_log))
        assert slow_report.same_position_fraction >= fast_report.same_position_fraction

    @given(st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=20, unique=True))
    @settings(max_examples=50, deadline=None)
    def test_same_sequence_at_all_sites_is_always_fully_agreed(self, values):
        labels = [f"m{value}" for value in values]
        report = order_agreement({"N1": labels, "N2": list(labels), "N3": list(labels)})
        assert report.same_position_fraction == 1.0
        assert report.pairwise_agreement_fraction == 1.0


class TestTentativeVsDefinitiveMismatch:
    def test_identical_orders_have_zero_mismatch(self):
        assert tentative_vs_definitive_mismatch(["a", "b"], ["a", "b"]) == 0.0

    def test_full_reversal_has_full_mismatch(self):
        assert tentative_vs_definitive_mismatch(["a", "b"], ["b", "a"]) == 1.0

    def test_partial_mismatch(self):
        value = tentative_vs_definitive_mismatch(["a", "b", "c"], ["b", "a", "c"])
        assert value == pytest.approx(2.0 / 3.0)

    def test_empty_sequences(self):
        assert tentative_vs_definitive_mismatch([], []) == 0.0

    def test_only_common_messages_count(self):
        value = tentative_vs_definitive_mismatch(["a", "x", "b"], ["a", "b", "y"])
        assert value == 0.0

    def test_a_repeated_id_counts_at_its_last_place(self):
        # A recovered site Opt-delivers "a" again: its last tentative place
        # (2) is not its definitive one (0), while "b" stays at 1.
        assert tentative_vs_definitive_mismatch(["a", "b", "a"], ["a", "b"]) == 0.5

    def test_long_permuted_orders_match_a_dict_based_reference(self):
        # Long enough that a per-element rescan of either sequence would
        # show up as seconds; some ids appear on one side only.
        shuffler = random.Random(7)
        tentative = [f"m{index}" for index in range(5000)] + ["only-tentative"]
        definitive = [f"m{index}" for index in range(5000)] + ["only-definitive"]
        shuffler.shuffle(tentative)
        shuffler.shuffle(definitive)

        tentative_rank = {mid: rank for rank, mid in enumerate(tentative)}
        common = [mid for mid in definitive if mid in tentative_rank]
        definitive_rank = {mid: rank for rank, mid in enumerate(common)}
        restricted = [mid for mid in tentative if mid in definitive_rank]
        expected = sum(
            1 for rank, mid in enumerate(restricted) if definitive_rank[mid] != rank
        ) / len(common)

        assert len(common) == 5000
        assert tentative_vs_definitive_mismatch(tentative, definitive) == expected
