"""Transmit-set construction and schedule properties."""

import pytest

from multihop.schedule import (
    BROADCAST,
    FORWARD,
    MODE_NC,
    MODE_TR,
    REVERSE,
    ScheduleConfig,
    forward_set,
    nc_schedule,
    nc_transmit_set,
    receivers,
    reverse_set,
    tr_schedule,
)

GRID = [(nodes, z) for nodes in range(3, 11) for z in range(2, 9)]


class TestForwardReverseSets:
    def test_five_nodes_period_three_golden(self):
        assert forward_set(5, 3, 1) == {1, 4}
        assert forward_set(5, 3, 2) == {2}
        assert forward_set(5, 3, 3) == {3}
        assert reverse_set(5, 3, 1) == {5, 2}
        assert reverse_set(5, 3, 2) == {4}
        assert reverse_set(5, 3, 3) == {3}

    def test_six_nodes_period_two(self):
        assert forward_set(6, 2, 1) == {1, 3, 5}
        assert forward_set(6, 2, 2) == {2, 4}
        assert reverse_set(6, 2, 1) == {6, 4, 2}
        assert reverse_set(6, 2, 2) == {5, 3}

    def test_long_period_leaves_trailing_slots_empty(self):
        assert forward_set(4, 5, 4) == frozenset()
        assert forward_set(4, 5, 5) == frozenset()
        assert reverse_set(4, 5, 5) == frozenset()

    @pytest.mark.parametrize("nodes,z", GRID)
    def test_forward_sets_partition_the_relaying_nodes(self, nodes, z):
        seen = []
        for slot in range(1, z + 1):
            seen.extend(forward_set(nodes, z, slot))
        assert sorted(seen) == list(range(1, nodes)), "each of nodes 1..N-1 transmits exactly once"

    @pytest.mark.parametrize("nodes,z", GRID)
    def test_reverse_sets_partition_the_relaying_nodes(self, nodes, z):
        seen = []
        for slot in range(1, z + 1):
            seen.extend(reverse_set(nodes, z, slot))
        assert sorted(seen) == list(range(2, nodes + 1)), "each of nodes 2..N transmits exactly once"

    @pytest.mark.parametrize("nodes,z", GRID)
    def test_reverse_mirrors_forward(self, nodes, z):
        for slot in range(1, z + 1):
            mirrored = {nodes + 1 - n for n in forward_set(nodes, z, slot)}
            assert reverse_set(nodes, z, slot) == mirrored

    @pytest.mark.parametrize("nodes,z", GRID)
    def test_cotransmitters_spaced_by_z(self, nodes, z):
        for slot in range(1, z + 1):
            for group in (forward_set(nodes, z, slot), reverse_set(nodes, z, slot)):
                ordered = sorted(group)
                for a, b in zip(ordered, ordered[1:]):
                    assert b - a == z

    def test_slot_bounds_checked(self):
        with pytest.raises(ValueError):
            forward_set(5, 3, 0)
        with pytest.raises(ValueError):
            forward_set(5, 3, 4)
        with pytest.raises(ValueError):
            reverse_set(5, 1, 1)
        with pytest.raises(ValueError):
            nc_transmit_set(2, 2, 1)

    def test_sets_follow_the_per_node_slot_rule(self):
        """Node i forwards and, coded, broadcasts in slot (i-1) % Z + 1 and sends
        reverse in slot (N-i) % Z + 1, for N up to 40 and Z up to 3N + 1."""
        for nodes in range(3, 41):
            for z in range(2, 3 * nodes + 2):
                forward, reverse, broadcast = ({s: set() for s in range(1, z + 1)} for _ in range(3))
                for i in range(1, nodes + 1):
                    if i < nodes:
                        forward[(i - 1) % z + 1].add(i)
                    if i > 1:
                        reverse[(nodes - i) % z + 1].add(i)
                    broadcast[(i - 1) % z + 1].add(i)
                for s in range(1, z + 1):
                    assert forward_set(nodes, z, s) == forward[s], (nodes, z, s)
                    assert reverse_set(nodes, z, s) == reverse[s], (nodes, z, s)
                    assert nc_transmit_set(nodes, z, s) == broadcast[s], (nodes, z, s)


class TestNcTransmitSets:
    def test_five_nodes_period_four_includes_far_source_in_slot_one(self):
        assert nc_transmit_set(5, 4, 1) == {1, 5}
        assert nc_transmit_set(5, 4, 2) == {2}
        assert nc_transmit_set(5, 4, 3) == {3}
        assert nc_transmit_set(5, 4, 4) == {4}

    def test_far_source_lands_in_its_residue_slot(self):
        # node N sits z apart from its co-transmitters, never adjacent to one
        assert nc_transmit_set(4, 2, 1) == {1, 3}
        assert nc_transmit_set(4, 2, 2) == {2, 4}
        assert nc_transmit_set(5, 3, 2) == {2, 5}
        assert nc_transmit_set(6, 4, 2) == {2, 6}

    @pytest.mark.parametrize("nodes,z", GRID)
    def test_sets_partition_all_nodes(self, nodes, z):
        seen = []
        for slot in range(1, z + 1):
            seen.extend(nc_transmit_set(nodes, z, slot))
        assert sorted(seen) == list(range(1, nodes + 1)), "every node transmits exactly once per period"

    @pytest.mark.parametrize("nodes,z", GRID)
    def test_no_adjacent_cotransmitters(self, nodes, z):
        for slot in range(1, z + 1):
            ordered = sorted(nc_transmit_set(nodes, z, slot))
            for a, b in zip(ordered, ordered[1:]):
                assert b - a == z
                assert b - a >= 2, "adjacent nodes may not share a slot"


class TestSchedules:
    def test_tr_period_is_twice_z(self):
        sched = tr_schedule(ScheduleConfig(nodes=5, z=3, mode=MODE_TR))
        assert sched.period == 6

    def test_tr_halves_carry_directions(self):
        sched = tr_schedule(ScheduleConfig(nodes=5, z=3, mode=MODE_TR))
        assert [direction for direction, _ in sched.sets] == [FORWARD] * 3 + [REVERSE] * 3

    def test_tr_golden_node_sets(self):
        sched = tr_schedule(ScheduleConfig(nodes=5, z=3, mode=MODE_TR))
        assert [sorted(on_air) for _, on_air in sched.sets] == [
            [1, 4], [2], [3], [2, 5], [4], [3],
        ]

    def test_nc_period_is_z_and_broadcasts(self):
        sched = nc_schedule(ScheduleConfig(nodes=5, z=4, mode=MODE_NC))
        assert sched.period == 4
        assert all(direction == BROADCAST for direction, _ in sched.sets)
        assert sorted(sched.sets[0][1]) == [1, 5]

    @pytest.mark.parametrize("nodes,z", GRID)
    def test_each_slot_is_the_frozenset_of_its_set_form(self, nodes, z):
        tr = tr_schedule(ScheduleConfig(nodes=nodes, z=z, mode=MODE_TR))
        nc = nc_schedule(ScheduleConfig(nodes=nodes, z=z, mode=MODE_NC))
        for s in range(1, z + 1):
            assert tr.sets[s - 1] == (FORWARD, forward_set(nodes, z, s))
            assert tr.sets[z + s - 1] == (REVERSE, reverse_set(nodes, z, s))
            assert nc.sets[s - 1] == (BROADCAST, nc_transmit_set(nodes, z, s))
        assert all(type(on_air) is frozenset for _, on_air in tr.sets + nc.sets)

    def test_slot_lookup_wraps(self):
        sched = tr_schedule(ScheduleConfig(nodes=5, z=3, mode=MODE_TR))
        assert sched.slot(1) is sched.sets[0]
        assert sched.slot(7) is sched.sets[0]
        assert sched.slot(12) is sched.sets[5]

    @pytest.mark.parametrize("nodes,z", GRID)
    def test_no_addressed_receiver_is_transmitting(self, nodes, z):
        tr = tr_schedule(ScheduleConfig(nodes=nodes, z=z, mode=MODE_TR))
        nc = nc_schedule(ScheduleConfig(nodes=nodes, z=z, mode=MODE_NC))
        for sched in (tr, nc):
            for direction, sending in sched.sets:
                for t in sending:
                    for r in receivers(direction, t, nodes):
                        assert r not in sending

    def test_mode_mismatch_rejected(self):
        with pytest.raises(ValueError):
            tr_schedule(ScheduleConfig(nodes=5, z=3, mode=MODE_NC))
        with pytest.raises(ValueError):
            nc_schedule(ScheduleConfig(nodes=5, z=3, mode=MODE_TR))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ScheduleConfig(nodes=2, z=2, mode=MODE_TR)
        with pytest.raises(ValueError):
            ScheduleConfig(nodes=5, z=1, mode=MODE_TR)
        with pytest.raises(ValueError):
            ScheduleConfig(nodes=5, z=2, mode="XX")

    def test_broadcast_receivers_are_both_neighbours(self):
        sched = nc_schedule(ScheduleConfig(nodes=5, z=4, mode=MODE_NC))
        assert sched.sets[0] == (BROADCAST, {1, 5})
        assert receivers(BROADCAST, 1, 5) == (2,)
        assert receivers(BROADCAST, 5, 5) == (4,)
        assert 3 in sched.sets[2][1]
        assert receivers(BROADCAST, 3, 5) == (2, 4)
