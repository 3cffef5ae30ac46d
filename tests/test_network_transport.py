"""Unit tests for the network transport, partitions and the dispatcher."""

import pytest

from repro.errors import NetworkError, UnknownSiteError
from repro.network import ConstantLatency, NetworkTransport, PartitionController
from repro.network.dispatcher import SiteDispatcher
from repro.simulation import SimulationKernel


def build_transport(seed=0, **kwargs):
    kernel = SimulationKernel(seed=seed)
    transport = NetworkTransport(kernel, ConstantLatency(0.001), **kwargs)
    return kernel, transport


def register_collector(transport, site_id):
    received = []
    transport.register_site(site_id, received.append)
    return received


class TestUnicast:
    def test_message_is_delivered_after_latency(self):
        kernel, transport = build_transport()
        inbox = register_collector(transport, "N2")
        register_collector(transport, "N1")
        transport.unicast("N1", "N2", {"op": "ping"})
        kernel.run_until_idle()
        assert len(inbox) == 1
        assert inbox[0].payload == {"op": "ping"}
        assert kernel.now() == pytest.approx(0.001)

    def test_unknown_destination_rejected(self):
        kernel, transport = build_transport()
        register_collector(transport, "N1")
        with pytest.raises(UnknownSiteError):
            transport.unicast("N1", "N9", "payload")

    def test_unknown_sender_rejected(self):
        kernel, transport = build_transport()
        register_collector(transport, "N2")
        with pytest.raises(UnknownSiteError):
            transport.unicast("N9", "N2", "payload")

    def test_stats_count_unicasts(self):
        kernel, transport = build_transport()
        register_collector(transport, "N1")
        register_collector(transport, "N2")
        transport.unicast("N1", "N2", "a")
        transport.unicast("N1", "N2", "b")
        kernel.run_until_idle()
        assert transport.stats.unicasts_sent == 2
        assert transport.stats.envelopes_delivered == 2


class TestMulticast:
    def test_delivered_to_every_site_including_sender(self):
        kernel, transport = build_transport()
        inboxes = {site: register_collector(transport, site) for site in ["N1", "N2", "N3"]}
        transport.multicast("N1", "hello")
        kernel.run_until_idle()
        assert all(len(inbox) == 1 for inbox in inboxes.values())

    def test_exclude_sender(self):
        kernel, transport = build_transport()
        inboxes = {site: register_collector(transport, site) for site in ["N1", "N2"]}
        transport.multicast("N1", "hello", include_sender=False)
        kernel.run_until_idle()
        assert len(inboxes["N1"]) == 0
        assert len(inboxes["N2"]) == 1

    def test_explicit_destinations(self):
        kernel, transport = build_transport()
        inboxes = {site: register_collector(transport, site) for site in ["N1", "N2", "N3"]}
        transport.multicast("N1", "hello", destinations=["N2"])
        kernel.run_until_idle()
        assert len(inboxes["N2"]) == 1
        assert len(inboxes["N3"]) == 0

    def test_every_receiver_gets_the_one_envelope(self):
        kernel, transport = build_transport()
        inboxes = {site: register_collector(transport, site) for site in ["N1", "N2", "N3"]}
        envelope_id = transport.multicast("N1", {"x": 1})
        kernel.run_until_idle()
        received = [inbox[0] for inbox in inboxes.values()]
        assert all(envelope is received[0] for envelope in received)
        assert received[0].envelope_id == envelope_id
        assert received[0].destination is None

    def test_delivery_log_records_receivers(self):
        kernel, transport = build_transport(record_deliveries=True)
        for site in ["N1", "N2", "N3"]:
            register_collector(transport, site)
        transport.multicast("N1", "x", kind="probe")
        kernel.run_until_idle()
        receivers = {record.receiver for record in transport.delivery_log}
        assert receivers == {"N1", "N2", "N3"}
        assert all(record.kind == "probe" for record in transport.delivery_log)


class TestLossAndRetransmission:
    def test_lossy_channel_still_delivers_everything(self):
        kernel, transport = build_transport(loss_probability=0.4)
        inbox = register_collector(transport, "N2")
        register_collector(transport, "N1")
        for index in range(50):
            transport.unicast("N1", "N2", index)
        kernel.run_until_idle()
        assert sorted(envelope.payload for envelope in inbox) == list(range(50))
        assert transport.stats.retransmissions > 0

    def test_invalid_loss_probability_rejected(self):
        kernel = SimulationKernel()
        with pytest.raises(NetworkError):
            NetworkTransport(kernel, ConstantLatency(), loss_probability=1.0)


class TestCrashBuffering:
    def test_messages_to_down_site_are_buffered_until_recovery(self):
        kernel, transport = build_transport()
        inbox = register_collector(transport, "N2")
        register_collector(transport, "N1")
        transport.set_site_up("N2", False)
        transport.unicast("N1", "N2", "while-down")
        kernel.run_until_idle()
        assert inbox == []
        transport.set_site_up("N2", True)
        kernel.run_until_idle()
        assert len(inbox) == 1
        assert inbox[0].payload == "while-down"

    def test_multicast_to_down_site_is_delivered_once_after_recovery(self):
        kernel, transport = build_transport()
        inboxes = {site: register_collector(transport, site) for site in ["N1", "N2", "N3"]}
        transport.set_site_up("N2", False)
        transport.multicast("N1", "while-down")
        kernel.run_until_idle()
        assert inboxes["N2"] == []
        assert len(inboxes["N3"]) == 1
        assert transport.stats.envelopes_buffered == 1
        transport.set_site_up("N2", True)
        kernel.run_until_idle()
        # The flushed envelope reaches the site it was buffered at, exactly once.
        assert [envelope.payload for envelope in inboxes["N2"]] == ["while-down"]
        assert inboxes["N2"][0] is inboxes["N3"][0]
        assert [len(inbox) for inbox in inboxes.values()] == [1, 1, 1]
        transport.set_site_up("N2", False)
        transport.set_site_up("N2", True)
        kernel.run_until_idle()
        assert len(inboxes["N2"]) == 1

    def test_unicast_to_down_site_is_delivered_once_after_recovery(self):
        kernel, transport = build_transport()
        inbox = register_collector(transport, "N2")
        register_collector(transport, "N1")
        transport.set_site_up("N2", False)
        transport.unicast("N1", "N2", "while-down")
        kernel.run_until_idle()
        transport.set_site_up("N2", True)
        transport.set_site_up("N2", True)
        kernel.run_until_idle()
        assert [envelope.payload for envelope in inbox] == ["while-down"]

    def test_is_site_up_tracks_state(self):
        kernel, transport = build_transport()
        register_collector(transport, "N1")
        assert transport.is_site_up("N1")
        transport.set_site_up("N1", False)
        assert not transport.is_site_up("N1")


class TestSharedMedium:
    def test_multicasts_are_serialised_by_frame_time(self):
        kernel, transport = build_transport(medium_frame_time=0.010)
        inbox = register_collector(transport, "N2")
        register_collector(transport, "N1")
        transport.multicast("N1", "first")
        transport.multicast("N1", "second")
        kernel.run_until_idle()
        arrival_times = sorted(
            envelope.sent_at for envelope in inbox
        )  # sent at the same instant
        assert arrival_times == [0.0, 0.0]
        # The second frame waits for the first to leave the medium, so the
        # difference between deliveries is at least one frame time.
        assert kernel.now() >= 0.020

    def test_negative_frame_time_rejected(self):
        kernel = SimulationKernel()
        with pytest.raises(NetworkError):
            NetworkTransport(kernel, ConstantLatency(), medium_frame_time=-0.1)


class TestPartitions:
    def test_partitioned_sites_do_not_receive_until_heal(self):
        kernel, transport = build_transport()
        inbox = register_collector(transport, "N2")
        register_collector(transport, "N1")
        transport.partitions.isolate(["N1"])
        transport.unicast("N1", "N2", "across-partition")
        kernel.run(until=0.050)
        assert inbox == []
        transport.partitions.heal()
        kernel.run_until_idle()
        assert len(inbox) == 1

    def test_sites_in_same_group_communicate(self):
        controller = PartitionController()
        controller.isolate(["N1", "N2"])
        assert controller.connected("N1", "N2")
        assert not controller.connected("N1", "N3")

    def test_heal_specific_sites(self):
        controller = PartitionController()
        controller.isolate(["N1"])
        controller.isolate(["N2"])
        controller.heal(["N1"])
        assert controller.group_of("N1") is None
        assert controller.group_of("N2") is not None

    def test_empty_partition_rejected(self):
        controller = PartitionController()
        with pytest.raises(NetworkError):
            controller.isolate([])

    def test_history_records_operations(self):
        controller = PartitionController()
        controller.isolate(["N1"], at_time=1.0)
        controller.heal(at_time=2.0)
        operations = [entry[1] for entry in controller.history]
        assert operations == ["isolate", "heal"]

    def test_self_connectivity_always_true(self):
        controller = PartitionController()
        controller.isolate(["N1"])
        assert controller.connected("N1", "N1")


class TestDispatcher:
    def test_routes_by_kind(self):
        kernel, transport = build_transport()
        dispatcher = SiteDispatcher(transport, "N1")
        register_collector(transport, "N2")
        seen_a, seen_b = [], []
        dispatcher.register_kind("alpha", lambda envelope: (seen_a.append(envelope), True)[1])
        dispatcher.register_kind("beta", lambda envelope: (seen_b.append(envelope), True)[1])
        transport.unicast("N2", "N1", "x", kind="alpha")
        transport.unicast("N2", "N1", "y", kind="beta")
        kernel.run_until_idle()
        assert len(seen_a) == 1 and seen_a[0].payload == "x"
        assert len(seen_b) == 1 and seen_b[0].payload == "y"

    def test_unconsumed_envelopes_are_recorded(self):
        kernel, transport = build_transport()
        dispatcher = SiteDispatcher(transport, "N1")
        register_collector(transport, "N2")
        transport.unicast("N2", "N1", "z", kind="unknown-kind")
        kernel.run_until_idle()
        assert len(dispatcher.unhandled) == 1

    def test_catch_all_handler(self):
        kernel, transport = build_transport()
        dispatcher = SiteDispatcher(transport, "N1")
        register_collector(transport, "N2")
        seen = []
        dispatcher.register(lambda envelope: (seen.append(envelope), True)[1])
        transport.unicast("N2", "N1", "z", kind="whatever")
        kernel.run_until_idle()
        assert len(seen) == 1
        assert dispatcher.unhandled == []

    def test_empty_kind_rejected(self):
        kernel, transport = build_transport()
        dispatcher = SiteDispatcher(transport, "N1")
        with pytest.raises(NetworkError):
            dispatcher.register_kind("", lambda envelope: True)
