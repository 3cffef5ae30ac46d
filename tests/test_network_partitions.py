"""Unit tests for the partition controller (group bookkeeping + predicates)."""

import pytest

from repro.errors import NetworkError
from repro.network.partitions import PartitionController

from oracles import severed_links


class TestConnected:
    def test_fully_connected_by_default(self):
        controller = PartitionController()
        assert controller.connected("N1", "N2")

    def test_site_always_connected_to_itself(self):
        controller = PartitionController()
        controller.isolate(["N1"])
        assert controller.connected("N1", "N1")

    def test_isolated_group_talks_internally_only(self):
        controller = PartitionController()
        controller.isolate(["N1", "N2"])
        assert controller.connected("N1", "N2")
        assert not controller.connected("N1", "N3")
        assert not controller.connected("N2", "N4")

    def test_implicit_none_group_sites_stay_connected(self):
        # Sites never mentioned in any isolate() share the implicit group.
        controller = PartitionController()
        controller.isolate(["N1"])
        assert controller.connected("N3", "N4")

    def test_empty_group_rejected(self):
        controller = PartitionController()
        with pytest.raises(NetworkError):
            controller.isolate([])


class TestGroupLayouts:
    @pytest.mark.parametrize(
        "groups, split_pairs",
        [
            ([], []),
            ([["N1"], ["N2"]], [("N1", "N2"), ("N1", "N3"), ("N2", "N3")]),
            ([["N1", "N2"]], [("N1", "N3"), ("N2", "N3")]),
            ([["N1", "N2", "N3"]], []),
        ],
        ids=["no-group", "two-groups", "group-and-outside-site", "one-group-of-all"],
    )
    def test_groups_split_exactly_the_pairs_across_them(self, groups, split_pairs):
        controller = PartitionController()
        for group in groups:
            controller.isolate(group)
        assert controller.intact is not groups
        for sender in ("N1", "N2", "N3"):
            for receiver in ("N1", "N2", "N3"):
                split = (sender, receiver) in split_pairs or (receiver, sender) in split_pairs
                assert controller.connected(sender, receiver) is not split


class TestHeal:
    def test_heal_all_clears_partition(self):
        controller = PartitionController()
        controller.isolate(["N1"])
        controller.heal()
        assert controller.intact
        assert controller.connected("N1", "N2")

    def test_partial_heal_keeps_remaining_group_partitioned(self):
        controller = PartitionController()
        controller.isolate(["N1", "N2"])
        controller.heal(["N1"])
        # N2 is still split off from the implicit group (which now holds N1).
        assert not controller.intact
        assert not controller.connected("N1", "N2")
        assert controller.connected("N1", "N3")


class TestDirectedLinks:
    def test_sever_blocks_only_one_direction(self):
        controller = PartitionController()
        controller.sever("N1", "N2")
        assert not controller.connected("N1", "N2")
        assert controller.connected("N2", "N1")
        assert severed_links(controller) == [("N1", "N2")]

    def test_self_link_rejected(self):
        controller = PartitionController()
        with pytest.raises(NetworkError):
            controller.sever("N1", "N1")

    def test_restore_reopens_the_link(self):
        controller = PartitionController()
        controller.sever("N1", "N2")
        controller.restore("N1", "N2")
        assert controller.connected("N1", "N2")
        assert severed_links(controller) == []

    def test_restore_of_intact_link_is_a_noop(self):
        controller = PartitionController()
        controller.restore("N1", "N2")
        assert controller.history == []

    def test_severed_links_make_controller_partitioned(self):
        controller = PartitionController()
        assert controller.intact
        controller.sever("N1", "N2")
        assert not controller.intact

    def test_directed_links_compose_with_groups(self):
        # A severed link on top of group membership: the group predicate
        # would allow the traffic, the directed rule must still block it.
        controller = PartitionController()
        controller.isolate(["N1", "N2"])
        controller.sever("N1", "N2")
        assert not controller.connected("N1", "N2")
        assert controller.connected("N2", "N1")

    def test_heal_of_touching_site_restores_directed_links(self):
        controller = PartitionController()
        controller.sever("N1", "N2")
        controller.sever("N3", "N1")
        controller.sever("N2", "N3")
        controller.heal(["N1"])
        # Both links touching N1 reopen (either direction); N2->N3 stays cut.
        assert controller.connected("N1", "N2")
        assert controller.connected("N3", "N1")
        assert not controller.connected("N2", "N3")

    def test_heal_all_restores_every_directed_link(self):
        controller = PartitionController()
        controller.sever("N1", "N2")
        controller.sever("N2", "N1")
        controller.heal()
        assert severed_links(controller) == []
        assert controller.connected("N1", "N2")


class TestHistory:
    def test_history_records_isolate_and_heal(self):
        controller = PartitionController()
        controller.isolate(["N1", "N2"], at_time=1.0)
        controller.heal(at_time=2.0)
        operations = [(time, op) for time, op, _ in controller.history]
        assert operations == [(1.0, "isolate"), (2.0, "heal")]

    def test_history_records_sever_and_restore(self):
        controller = PartitionController()
        controller.sever("N1", "N2", at_time=1.5)
        controller.restore("N1", "N2", at_time=2.5)
        assert controller.history == [
            (1.5, "sever", ("N1", "N2")),
            (2.5, "restore", ("N1", "N2")),
        ]

    def test_clock_stamps_history_when_no_explicit_time_given(self):
        # The transport wires its kernel's clock in, so history entries are
        # chronologically truthful instead of all defaulting to 0.0.
        now = {"value": 3.25}
        controller = PartitionController(clock=lambda: now["value"])
        controller.isolate(["N1"])
        now["value"] = 4.5
        controller.heal()
        assert [(time, op) for time, op, _ in controller.history] == [
            (3.25, "isolate"),
            (4.5, "heal"),
        ]

    def test_explicit_time_wins_over_clock(self):
        controller = PartitionController(clock=lambda: 9.9)
        controller.sever("N1", "N2", at_time=1.0)
        assert controller.history[0][0] == 1.0

    def test_without_clock_or_time_defaults_to_zero(self):
        controller = PartitionController()
        controller.isolate(["N1"])
        assert controller.history[0][0] == 0.0
