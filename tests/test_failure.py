"""Unit tests for crash injection and the heartbeat failure detector."""

import pytest

from repro.errors import NetworkError
from repro.failure import CrashManager, CrashSchedule, FailureDetector
from repro.network import ConstantLatency, NetworkTransport
from repro.network.dispatcher import SiteDispatcher
from repro.simulation import SimulationKernel


def build_cluster(site_count=3, seed=0):
    kernel = SimulationKernel(seed=seed)
    transport = NetworkTransport(kernel, ConstantLatency(0.001))
    dispatchers = {}
    for index in range(site_count):
        site = f"N{index + 1}"
        dispatchers[site] = SiteDispatcher(transport, site)
    return kernel, transport, dispatchers


class TestCrashSchedule:
    def test_crash_for_creates_pair(self):
        schedule = CrashSchedule().crash_for("N1", at=1.0, duration=2.0)
        events = schedule.sorted_events()
        assert [(event.time, event.up) for event in events] == [(1.0, False), (3.0, True)]

    def test_events_sorted_by_time(self):
        schedule = CrashSchedule().recover("N1", at=5.0).crash("N1", at=1.0)
        assert [event.time for event in schedule.sorted_events()] == [1.0, 5.0]

    def test_zero_duration_rejected(self):
        with pytest.raises(NetworkError):
            CrashSchedule().crash_for("N1", at=1.0, duration=0.0)


class TestCrashManager:
    def test_crash_and_recovery_change_transport_state(self):
        kernel, transport, _ = build_cluster()
        manager = CrashManager(kernel, transport)
        manager.apply_schedule(CrashSchedule().crash_for("N2", at=0.010, duration=0.020))
        kernel.run(until=0.015)
        assert not transport.is_site_up("N2")
        assert not manager.is_up("N2")
        kernel.run(until=0.050)
        assert transport.is_site_up("N2")
        assert manager.crash_count("N2") == 1

    def test_listeners_notified_on_change(self):
        kernel, transport, _ = build_cluster()
        manager = CrashManager(kernel, transport)
        changes = []
        manager.add_listener(lambda site, up: changes.append((site, up)))
        manager.crash_now("N1")
        manager.recover_now("N1")
        assert changes == [("N1", False), ("N1", True)]

    def test_redundant_transitions_are_ignored(self):
        kernel, transport, _ = build_cluster()
        manager = CrashManager(kernel, transport)
        changes = []
        manager.add_listener(lambda site, up: changes.append((site, up)))
        manager.recover_now("N1")  # already up
        assert changes == []

    def test_up_sites_lists_only_live_sites(self):
        kernel, transport, _ = build_cluster()
        manager = CrashManager(kernel, transport)
        manager.crash_now("N3")
        assert manager.up_sites() == ["N1", "N2"]

    def test_crash_of_already_down_site_is_a_noop(self):
        kernel, transport, _ = build_cluster()
        manager = CrashManager(kernel, transport)
        changes = []
        manager.add_listener(lambda site, up: changes.append((site, up)))
        manager.crash_now("N2")
        manager.crash_now("N2")  # second crash must not fire or count
        assert changes == [("N2", False)]
        assert manager.crash_count("N2") == 1
        assert not transport.is_site_up("N2")

    def test_recovery_without_prior_crash_is_a_noop(self):
        kernel, transport, _ = build_cluster()
        manager = CrashManager(kernel, transport)
        changes = []
        manager.add_listener(lambda site, up: changes.append((site, up)))
        manager.recover_now("N1")  # sites default to up
        assert changes == []
        assert manager.crash_count("N1") == 0
        assert manager.is_up("N1")

    def test_scheduled_redundant_events_collapse(self):
        # A schedule that crashes the same site twice and recovers it twice
        # produces exactly one crash and one recovery notification.
        kernel, transport, _ = build_cluster()
        manager = CrashManager(kernel, transport)
        changes = []
        manager.add_listener(lambda site, up: changes.append((site, up)))
        schedule = (
            CrashSchedule()
            .crash("N1", at=0.010)
            .crash("N1", at=0.020)
            .recover("N1", at=0.030)
            .recover("N1", at=0.040)
        )
        manager.apply_schedule(schedule)
        kernel.run_until_idle()
        assert changes == [("N1", False), ("N1", True)]
        assert manager.crash_count("N1") == 1

    def test_listeners_notified_in_registration_order(self):
        kernel, transport, _ = build_cluster()
        manager = CrashManager(kernel, transport)
        order = []
        manager.add_listener(lambda site, up: order.append(("first", site, up)))
        manager.add_listener(lambda site, up: order.append(("second", site, up)))
        manager.crash_now("N1")
        manager.recover_now("N1")
        assert order == [
            ("first", "N1", False),
            ("second", "N1", False),
            ("first", "N1", True),
            ("second", "N1", True),
        ]

    def test_same_time_events_apply_in_site_order(self):
        # sorted_events breaks time ties by site id, so a deterministic
        # schedule results even when several sites crash at the same instant.
        kernel, transport, _ = build_cluster()
        manager = CrashManager(kernel, transport)
        changes = []
        manager.add_listener(lambda site, up: changes.append(site))
        schedule = CrashSchedule().crash("N3", at=0.010).crash("N1", at=0.010)
        assert [event.site for event in schedule.sorted_events()] == ["N1", "N3"]
        manager.apply_schedule(schedule)
        kernel.run_until_idle()
        assert changes == ["N1", "N3"]


class TestFailureDetector:
    def build_detectors(self, site_count=3, **kwargs):
        kernel, transport, dispatchers = build_cluster(site_count=site_count)
        detectors = {}
        for site, dispatcher in dispatchers.items():
            detector = FailureDetector(kernel, transport, site, **kwargs)
            dispatcher.register_kind(
                "failure-detector.heartbeat", detector.on_envelope
            )
            detectors[site] = detector
        return kernel, transport, detectors

    def test_no_suspicions_without_crashes(self):
        kernel, transport, detectors = self.build_detectors()
        for detector in detectors.values():
            detector.start()
        kernel.run(until=0.5)
        assert all(not detector._suspected for detector in detectors.values())

    def test_crashed_site_becomes_suspected(self):
        kernel, transport, detectors = self.build_detectors()
        for detector in detectors.values():
            detector.start()
        manager = CrashManager(kernel, transport)
        kernel.run(until=0.1)
        manager.crash_now("N3")
        detectors["N3"].stop()
        kernel.run(until=0.5)
        assert detectors["N1"].is_suspected("N3")
        assert detectors["N2"].is_suspected("N3")

    def test_recovered_site_is_trusted_again_and_timeout_grows(self):
        kernel, transport, detectors = self.build_detectors()
        for detector in detectors.values():
            detector.start()
        manager = CrashManager(kernel, transport)
        kernel.run(until=0.1)
        manager.crash_now("N3")
        detectors["N3"].stop()
        kernel.run(until=0.4)
        assert detectors["N1"].is_suspected("N3")
        manager.recover_now("N3")
        detectors["N3"].reset()
        detectors["N3"].start()
        kernel.run(until=1.0)
        assert not detectors["N1"].is_suspected("N3")

    def test_suspicion_listener_fires_on_both_transitions(self):
        kernel, transport, detectors = self.build_detectors()
        for detector in detectors.values():
            detector.start()
        events = []
        detectors["N1"].add_listener(lambda peer, suspected: events.append((peer, suspected)))
        manager = CrashManager(kernel, transport)
        kernel.run(until=0.1)
        manager.crash_now("N2")
        detectors["N2"].stop()
        kernel.run(until=0.4)
        manager.recover_now("N2")
        detectors["N2"].start()
        kernel.run(until=1.0)
        assert ("N2", True) in events
        assert ("N2", False) in events

    def test_stopped_detector_does_not_send_heartbeats(self):
        kernel, transport, detectors = self.build_detectors(site_count=2)
        detectors["N1"].start()
        detectors["N1"].stop()
        detectors["N2"].start()
        kernel.run(until=0.3)
        # N2 never hears from N1 and eventually suspects it.
        assert detectors["N2"].is_suspected("N1")

    def test_stale_heartbeat_does_not_rewind_liveness(self):
        # A heal flushes held envelopes in arrival order, so a heartbeat
        # older than the freshest one seen can arrive *after* it.  The stale
        # one must neither rewind _last_heard nor lift a suspicion.
        from repro.failure.detector import Heartbeat

        kernel, transport, detectors = self.build_detectors(site_count=2)
        detector = detectors["N2"]
        detector.start()
        kernel.run(until=0.010)
        detector._on_heartbeat(Heartbeat(origin="N1", sequence=5))
        heard_at_fresh = detector._last_heard["N1"]
        kernel.run(until=0.020)
        detector._on_heartbeat(Heartbeat(origin="N1", sequence=3))  # stale
        assert detector._last_heard["N1"] == heard_at_fresh
        assert detector._last_sequence["N1"] == 5
        # Duplicate of the freshest sequence is equally ignored.
        kernel.run(until=0.030)
        detector._on_heartbeat(Heartbeat(origin="N1", sequence=5))
        assert detector._last_heard["N1"] == heard_at_fresh

    def test_stale_heartbeat_does_not_lift_suspicion(self):
        from repro.failure.detector import Heartbeat

        kernel, transport, detectors = self.build_detectors(site_count=2)
        detector = detectors["N2"]
        detector.start()
        detector._on_heartbeat(Heartbeat(origin="N1", sequence=8))
        detectors["N1"].stop()  # N1 stays silent from here on
        kernel.run(until=0.3)
        assert detector.is_suspected("N1")
        # A flushed stale heartbeat must not make N1 look alive again...
        detector._on_heartbeat(Heartbeat(origin="N1", sequence=2))
        assert detector.is_suspected("N1")
        # ...but a genuinely newer one does, and widens the timeout.
        detector._on_heartbeat(Heartbeat(origin="N1", sequence=9))
        assert not detector.is_suspected("N1")
        assert detector._timeouts["N1"] == pytest.approx(
            detector.initial_timeout + detector.timeout_increment
        )

    def test_false_suspicion_under_latency_spike_adapts_timeout(self):
        # A latency spike (no crash) delays heartbeats past the timeout: the
        # peer is falsely suspected, then re-trusted when traffic recovers,
        # and the timeout grows so an identical spike no longer misleads —
        # the eventual-accuracy half of the ◇P contract.
        kernel, transport, detectors = self.build_detectors(site_count=2)
        for detector in detectors.values():
            detector.start()
        kernel.run(until=0.050)
        assert not detectors["N1"].is_suspected("N2")
        initial = detectors["N1"]._timeouts["N2"]

        transport.latency_model = ConstantLatency(0.120)  # >> 50 ms timeout
        kernel.run(until=0.150)
        assert detectors["N1"].is_suspected("N2")

        transport.latency_model = ConstantLatency(0.001)
        kernel.run(until=0.400)
        assert not detectors["N1"].is_suspected("N2")
        assert detectors["N1"]._timeouts["N2"] > initial

    def test_asymmetric_partition_yields_one_sided_suspicion(self):
        # Sever only N1 -> N2: N2 stops hearing N1 and suspects it, while
        # N1 keeps hearing N2 and trusts it.  Restoring the link flushes the
        # held (stale) heartbeats and fresh ones re-establish trust.
        kernel, transport, detectors = self.build_detectors(site_count=2)
        for detector in detectors.values():
            detector.start()
        kernel.run(until=0.050)
        transport.partitions.sever("N1", "N2", at_time=kernel.now())
        kernel.run(until=0.200)
        assert detectors["N2"].is_suspected("N1")
        assert not detectors["N1"].is_suspected("N2")

        transport.partitions.restore("N1", "N2", at_time=kernel.now())
        kernel.run(until=0.500)
        assert not detectors["N2"].is_suspected("N1")
        assert not detectors["N1"].is_suspected("N2")

    def test_detector_with_group_ignores_outside_sites(self):
        # Two disjoint groups on one transport (the sharded layout): group
        # detectors neither heartbeat nor monitor the other group's sites.
        kernel, transport, dispatchers = build_cluster(site_count=4)
        groups = {"A": ["N1", "N2"], "B": ["N3", "N4"]}
        detectors = {}
        for group_sites in groups.values():
            for site in group_sites:
                detector = FailureDetector(
                    kernel, transport, site, group=group_sites
                )
                dispatchers[site].register_kind(
                    "failure-detector.heartbeat", detector.on_envelope
                )
                detector.start()
                detectors[site] = detector
        detectors["N3"].stop()
        detectors["N4"].stop()  # whole group B silent
        kernel.run(until=0.4)
        # Group A never monitored B's sites, so nothing is suspected.
        assert detectors["N1"]._suspected == set()
