"""Unit tests for the network transport, partitions and the dispatcher."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetworkError, UnknownSiteError
from repro.failure import CrashManager
from repro.network import (
    ConstantLatency,
    NetworkTransport,
    PartitionController,
    UniformLatency,
)
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

    def test_one_destination_multicast_reaches_only_it_after_latency(self):
        kernel, transport = build_transport()
        inboxes = {site: register_collector(transport, site) for site in ["N1", "N2", "N3"]}
        transport.multicast("N1", {"op": "ping"}, destinations=["N2"])
        kernel.run_until_idle()
        assert [envelope.payload for envelope in inboxes["N2"]] == [{"op": "ping"}]
        assert inboxes["N1"] == inboxes["N3"] == []
        assert kernel.now() == pytest.approx(0.001)

    def test_stats_count_multicasts_and_deliveries(self):
        kernel, transport = build_transport()
        for site in ["N1", "N2", "N3"]:
            register_collector(transport, site)
        transport.multicast("N1", "a", destinations=["N2"])
        transport.multicast("N1", "b")
        kernel.run_until_idle()
        assert transport.stats.multicasts_sent == 2
        assert transport.stats.envelopes_delivered == 4

    def test_every_receiver_gets_the_one_envelope(self):
        kernel, transport = build_transport()
        inboxes = {site: register_collector(transport, site) for site in ["N1", "N2", "N3"]}
        envelope_id = transport.multicast("N1", {"x": 1})
        kernel.run_until_idle()
        received = [inbox[0] for inbox in inboxes.values()]
        assert all(envelope is received[0] for envelope in received)
        assert received[0].envelope_id == envelope_id

    def test_delivery_log_records_receivers(self):
        kernel, transport = build_transport(record_deliveries=True)
        for site in ["N1", "N2", "N3"]:
            register_collector(transport, site)
        transport.multicast("N1", "x", kind="probe")
        kernel.run_until_idle()
        receivers = {record.receiver for record in transport.delivery_log}
        assert receivers == {"N1", "N2", "N3"}
        assert all(record.kind == "probe" for record in transport.delivery_log)


class TestReliableChannels:
    def test_reordering_channel_delivers_everything_without_retransmission(self):
        kernel = SimulationKernel(seed=0)
        transport = NetworkTransport(kernel, UniformLatency(0.0005, 0.004))
        inbox = register_collector(transport, "N2")
        register_collector(transport, "N1")
        for index in range(50):
            transport.multicast("N1", index, destinations=["N2"])
        kernel.run_until_idle()
        assert sorted(envelope.payload for envelope in inbox) == list(range(50))
        assert transport.stats.envelopes_delivered == 50
        assert transport.stats.retransmissions == 0

    def test_held_envelope_arrives_at_the_first_recheck_after_heal(self):
        kernel, transport = build_transport(record_deliveries=True)
        register_collector(transport, "N1")
        inbox = register_collector(transport, "N2")
        transport.partitions.isolate(["N1"])
        transport.multicast("N1", "held", destinations=["N2"])
        # Arrival at 1 ms is held and re-checked every 2 ms: 3 ms, 5 ms, ...
        kernel.schedule_at(0.004, transport.partitions.heal, label="heal")
        kernel.run_until_idle()
        assert [envelope.payload for envelope in inbox] == ["held"]
        assert transport.delivery_log[0].delivered_at == pytest.approx(0.005)
        assert transport.stats.envelopes_buffered == 2


class TestCrashBuffering:
    def test_messages_to_down_site_are_buffered_until_recovery(self):
        kernel, transport = build_transport()
        inbox = register_collector(transport, "N2")
        register_collector(transport, "N1")
        transport.set_site_up("N2", False)
        transport.multicast("N1", "while-down", destinations=["N2"])
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

    def test_repeated_recovery_delivers_a_buffered_envelope_once(self):
        kernel, transport = build_transport()
        inbox = register_collector(transport, "N2")
        register_collector(transport, "N1")
        transport.set_site_up("N2", False)
        transport.multicast("N1", "while-down", destinations=["N2"])
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
        transport.multicast("N1", "across-partition", destinations=["N2"])
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
        assert controller.connected("N1", "N3")
        assert not controller.connected("N2", "N3")

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


#: The delivery log of :func:`partitioned_delivery_log`, printed with loss
#: off before the transport's lossy path was deleted: a pin on the order of
#: every latency draw, every hold and every flush.
#: Rows are ``(payload, sender, receiver, sent_at, delivered_at)``.
EXPECTED_PARTITIONED_LOG = [
    ('open-all', 'N1', 'N4', 0.0, 0.00087782),
    ('open-all', 'N1', 'N3', 0.0, 0.000936124),
    ('open-all', 'N1', 'N1', 0.0, 0.000952106),
    ('open-group', 'N2', 'N1', 0.0, 0.001145324),
    ('open-one', 'N3', 'N4', 0.0, 0.001358935),
    ('open-list', 'N4', 'N3', 0.0, 0.001444635),
    ('open-all', 'N1', 'N2', 0.0, 0.001446737),
    ('split-all', 'N1', 'N1', 0.0015, 0.002357232),
    ('split-all', 'N1', 'N2', 0.0015, 0.002437989),
    ('split-group', 'N2', 'N1', 0.0015, 0.002685241),
    ('split-list', 'N4', 'N3', 0.0015, 0.002841275),
    ('split-one', 'N3', 'N4', 0.0015, 0.003067305),
    ('split-all', 'N1', 'N3', 0.0015, 0.006334236),
    ('split-all', 'N1', 'N4', 0.0015, 0.006425815),
    ('split-list', 'N4', 'N1', 0.0015, 0.006659849),
    ('split-group', 'N2', 'N3', 0.0015, 0.006718484),
    ('open-group', 'N2', 'N3', 0.0, 0.0071677),
    ('open-list', 'N4', 'N1', 0.0, 0.007277211),
    ('cut-all', 'N1', 'N2', 0.0075, 0.008270905),
    ('cut-all', 'N1', 'N4', 0.0075, 0.0082936),
    ('cut-all', 'N1', 'N1', 0.0075, 0.008303151),
    ('cut-group', 'N2', 'N3', 0.0075, 0.008463315),
    ('cut-all', 'N1', 'N3', 0.0075, 0.00848878),
    ('cut-group', 'N2', 'N1', 0.0075, 0.008493647),
    ('cut-list', 'N4', 'N3', 0.0075, 0.008971296),
    ('cut-list', 'N4', 'N1', 0.0075, 0.009006734),
    ('cut-one', 'N3', 'N4', 0.0075, 0.013006586),
    ('healed-all', 'N1', 'N4', 0.013, 0.013859959),
    ('healed-all', 'N1', 'N2', 0.013, 0.013946834),
    ('healed-list', 'N4', 'N3', 0.013, 0.014037046),
    ('healed-all', 'N1', 'N1', 0.013, 0.014040163),
    ('healed-list', 'N4', 'N1', 0.013, 0.014073544),
    ('healed-group', 'N2', 'N1', 0.013, 0.014288881),
    ('healed-one', 'N3', 'N4', 0.013, 0.014336679),
    ('healed-all', 'N1', 'N3', 0.013, 0.014366359),
    ('healed-group', 'N2', 'N3', 0.013, 0.014436499),
]


def partitioned_delivery_log():
    """Four bursts over a shared medium: open, partitioned, cut, healed.

    A group partition isolates N1 and N2 and is healed; the directed link
    N3 -> N4 is severed and restored.  Each burst multicasts to everyone, to
    a fixed group tuple without the sender, to a list with a duplicate, and
    to the one receiver N4.
    """
    kernel = SimulationKernel(seed=7)
    transport = NetworkTransport(kernel, medium_frame_time=0.0002, record_deliveries=True)
    for site in ("N1", "N2", "N3", "N4"):
        transport.register_site(site, lambda envelope: None)
    group = ("N1", "N2", "N3")

    def burst(tag):
        transport.multicast("N1", f"{tag}-all")
        transport.multicast("N2", f"{tag}-group", destinations=group, include_sender=False)
        transport.multicast("N4", f"{tag}-list", destinations=["N3", "N1", "N3"])
        transport.multicast("N3", f"{tag}-one", destinations=("N4",))

    burst("open")
    kernel.schedule(0.001, lambda: transport.partitions.isolate(["N1", "N2"]))
    kernel.schedule(0.0015, lambda: burst("split"))
    kernel.schedule(0.006, lambda: transport.partitions.heal())
    kernel.schedule(0.007, lambda: transport.partitions.sever("N3", "N4"))
    kernel.schedule(0.0075, lambda: burst("cut"))
    kernel.schedule(0.012, lambda: transport.partitions.restore("N3", "N4"))
    kernel.schedule(0.013, lambda: burst("healed"))
    kernel.run_until_idle()
    log = [
        (r.payload, r.sender, r.receiver, round(r.sent_at, 9), round(r.delivered_at, 9))
        for r in transport.delivery_log
    ]
    return log, transport.stats


class TestExactDelivery:
    def test_lossy_partitioned_run_delivers_exactly_as_pinned(self):
        log, stats = partitioned_delivery_log()
        assert log == EXPECTED_PARTITIONED_LOG
        assert (stats.envelopes_delivered, stats.envelopes_buffered) == (36, 16)

    def test_site_registered_after_a_multicast_receives_the_next_one(self):
        kernel, transport = build_transport()
        inboxes = {site: register_collector(transport, site) for site in ["N1", "N2"]}
        transport.multicast("N1", "before")
        inboxes["N3"] = register_collector(transport, "N3")
        transport.multicast("N1", "after")
        kernel.run_until_idle()
        assert [e.payload for e in inboxes["N3"]] == ["after"]
        assert [e.payload for e in inboxes["N1"]] == ["before", "after"]

    @pytest.mark.parametrize(
        "sender, destinations",
        [("N9", None), ("N9", ("N1",)), ("N1", ("N1", "N9")), ("N1", ["N9"])],
    )
    def test_unknown_site_is_rejected_on_every_send(self, sender, destinations):
        kernel, transport = build_transport()
        register_collector(transport, "N1")
        for _ in range(2):
            with pytest.raises(UnknownSiteError):
                transport.multicast(sender, "x", destinations=destinations)
        assert transport.stats.multicasts_sent == 0


#: Milliseconds on the simulated clock.
MS = 0.001


class TestEveryEnvelopeExactlyOnce:
    """The guarantee the broadcast layers build on, so they relay nothing."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        down=st.tuples(
            st.sampled_from(["N2", "N3"]), st.integers(0, 12), st.integers(1, 12)
        ),
        cut=st.tuples(
            st.sampled_from(["N1", "N2", "N3"]), st.integers(0, 12), st.integers(1, 12)
        ),
        sender_crashes=st.booleans(),
    )
    def test_each_receiver_handles_each_envelope_exactly_once(
        self, down, cut, sender_crashes
    ):
        kernel = SimulationKernel(seed=3)
        transport = NetworkTransport(kernel, UniformLatency(0.0005, 0.004))
        seen = {}
        for site in ("N1", "N2", "N3"):
            seen[site] = []
            transport.register_site(
                site, lambda envelope, site=site: seen[site].append(envelope.envelope_id)
            )
        crash_manager = CrashManager(kernel, transport)
        down_site, down_at, down_for = down
        kernel.schedule(down_at * MS, lambda: transport.set_site_up(down_site, False))
        kernel.schedule(
            (down_at + down_for) * MS, lambda: transport.set_site_up(down_site, True)
        )
        isolated, cut_at, cut_for = cut
        kernel.schedule(cut_at * MS, lambda: transport.partitions.isolate([isolated]))
        kernel.schedule((cut_at + cut_for) * MS, transport.partitions.heal)
        sent = []

        def send(sender):
            if not transport.is_site_up(sender):
                return  # a down site sends nothing
            sent.append(transport.multicast(sender, "x"))
            if sender == "N1" and sender_crashes:
                crash_manager.crash_now("N1")  # right after the multicast

        for tick in range(8):
            kernel.schedule(tick * 1.5 * MS, lambda: send("N2"))
            kernel.schedule(tick * 1.5 * MS, lambda: send("N3"))
        kernel.schedule(6 * MS, lambda: send("N1"))
        kernel.run_until_idle()

        assert len(sent) > 8
        for site in ("N2", "N3"):
            assert sorted(seen[site]) == sorted(sent)
        if sender_crashes:
            # A crash-stop sender handles nothing after its crash, and
            # nothing twice before it.
            assert len(set(seen["N1"])) == len(seen["N1"]) < len(sent)
        else:
            assert sorted(seen["N1"]) == sorted(sent)


class TestDispatcher:
    def test_routes_by_kind(self):
        kernel, transport = build_transport()
        dispatcher = SiteDispatcher(transport, "N1")
        register_collector(transport, "N2")
        seen_a, seen_b = [], []
        dispatcher.register_kind("alpha", lambda envelope: (seen_a.append(envelope), True)[1])
        dispatcher.register_kind("beta", lambda envelope: (seen_b.append(envelope), True)[1])
        transport.multicast("N2", "x", destinations=["N1"], kind="alpha")
        transport.multicast("N2", "y", destinations=["N1"], kind="beta")
        kernel.run_until_idle()
        assert len(seen_a) == 1 and seen_a[0].payload == "x"
        assert len(seen_b) == 1 and seen_b[0].payload == "y"

    def test_unconsumed_envelopes_are_recorded(self):
        kernel, transport = build_transport()
        dispatcher = SiteDispatcher(transport, "N1")
        register_collector(transport, "N2")
        transport.multicast("N2", "z", destinations=["N1"], kind="unknown-kind")
        kernel.run_until_idle()
        assert len(dispatcher.unhandled) == 1

    def test_catch_all_handler(self):
        kernel, transport = build_transport()
        dispatcher = SiteDispatcher(transport, "N1")
        register_collector(transport, "N2")
        seen = []
        dispatcher.register(lambda envelope: (seen.append(envelope), True)[1])
        transport.multicast("N2", "z", destinations=["N1"], kind="whatever")
        kernel.run_until_idle()
        assert len(seen) == 1
        assert dispatcher.unhandled == []

    def test_empty_kind_rejected(self):
        kernel, transport = build_transport()
        dispatcher = SiteDispatcher(transport, "N1")
        with pytest.raises(NetworkError):
            dispatcher.register_kind("", lambda envelope: True)
