"""Transmit-set construction and schedule properties.

The set forms come from ``tests/reference.py``, the independent encoding of
the slot rules that ``period_events`` and the schedules built from it are
checked against.
"""

import ast
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multihop.schedule import (
    BROADCAST,
    FORWARD,
    MODE_NC,
    MODE_TR,
    REVERSE,
    ScheduleConfig,
    nc_schedule,
    period,
    period_events,
    tr_schedule,
)
from reference import forward_set, nc_transmit_set, receivers, reverse_set

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
        sched = tr_schedule(5, 3)
        assert sched.period == 6

    def test_tr_halves_carry_directions(self):
        sched = tr_schedule(5, 3)
        assert [direction for direction, _ in sched.sets] == [FORWARD] * 3 + [REVERSE] * 3

    def test_tr_golden_node_sets(self):
        sched = tr_schedule(5, 3)
        assert [sorted(on_air) for _, on_air in sched.sets] == [
            [1, 4], [2], [3], [2, 5], [4], [3],
        ]

    def test_period_is_2z_under_tr_and_z_under_nc(self):
        assert (period(MODE_TR, 5), period(MODE_NC, 5)) == (10, 5)
        with pytest.raises(ValueError, match="unknown mode 'XX'"):
            period("XX", 5)

    def test_nc_period_is_z_and_broadcasts(self):
        sched = nc_schedule(5, 4)
        assert sched.period == 4
        assert all(direction == BROADCAST for direction, _ in sched.sets)
        assert sorted(sched.sets[0][1]) == [1, 5]

    @pytest.mark.parametrize("nodes,z", GRID)
    def test_each_slot_is_the_frozenset_of_its_set_form(self, nodes, z):
        tr = tr_schedule(nodes, z)
        nc = nc_schedule(nodes, z)
        for s in range(1, z + 1):
            assert tr.sets[s - 1] == (FORWARD, forward_set(nodes, z, s))
            assert tr.sets[z + s - 1] == (REVERSE, reverse_set(nodes, z, s))
            assert nc.sets[s - 1] == (BROADCAST, nc_transmit_set(nodes, z, s))
        assert all(type(on_air) is frozenset for _, on_air in tr.sets + nc.sets)

    def test_slot_lookup_wraps(self):
        sched = tr_schedule(5, 3)
        assert sched.slot(1) is sched.sets[0]
        assert sched.slot(7) is sched.sets[0]
        assert sched.slot(12) is sched.sets[5]

    @pytest.mark.parametrize("nodes,z", GRID)
    def test_no_addressed_receiver_is_transmitting(self, nodes, z):
        tr = tr_schedule(nodes, z)
        nc = nc_schedule(nodes, z)
        for sched in (tr, nc):
            for direction, sending in sched.sets:
                for t in sending:
                    for r in receivers(direction, t, nodes):
                        assert r not in sending

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ScheduleConfig(nodes=2, z=2, mode=MODE_TR)
        with pytest.raises(ValueError):
            ScheduleConfig(nodes=5, z=1, mode=MODE_TR)
        with pytest.raises(ValueError):
            ScheduleConfig(nodes=5, z=2, mode="XX")

    @pytest.mark.parametrize("nodes,z", [(2, 2), (5, 1), (5, 0), (5, -3)])
    def test_schedules_validate_nodes_and_z_before_any_slot(self, nodes, z):
        for build in (tr_schedule, nc_schedule):
            with pytest.raises(ValueError):
                build(nodes, z)

    def test_schedules_carry_their_own_mode(self):
        assert tr_schedule(5, 3).config == ScheduleConfig(nodes=5, z=3, mode=MODE_TR)
        assert nc_schedule(5, 3).config == ScheduleConfig(nodes=5, z=3, mode=MODE_NC)

    def test_broadcast_receivers_are_both_neighbours(self):
        sched = nc_schedule(5, 4)
        assert sched.sets[0] == (BROADCAST, {1, 5})
        assert receivers(BROADCAST, 1, 5) == (2,)
        assert receivers(BROADCAST, 5, 5) == (4,)
        assert 3 in sched.sets[2][1]
        assert receivers(BROADCAST, 3, 5) == (2, 4)


def reference_sets(mode, nodes, z):
    """(direction, frozenset of nodes on air) per slot of a mode's period, from the set forms."""
    if mode == MODE_NC:
        return [(BROADCAST, nc_transmit_set(nodes, z, s)) for s in range(1, z + 1)]
    halves = ((FORWARD, forward_set), (REVERSE, reverse_set))
    return [(d, form(nodes, z, s)) for d, form in halves for s in range(1, z + 1)]


@st.composite
def periods(draw):
    nodes = draw(st.integers(3, 64))
    return nodes, draw(st.integers(2, 3 * nodes))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(period=periods())
@example(period=(3, 2))
@example(period=(4, 5))  # TR forward slots 4 and 5 and reverse slot 5 are empty
@example(period=(64, 192))
def test_period_events_follow_the_reference_set_forms(period):
    """For N 3..64 and Z 2..3N, in both modes and both TR phases, the columns
    list exactly the events of the reference's slots, each on-air node sending
    to every receiver its direction addresses. So grouped by slot they are the
    set forms (in the opposite phase, the set forms rotated by Z), and each
    receiver is one its transmitter addresses. The builders' schedules are the
    reference's, the directions of empty slots included."""
    nodes, z = period
    for mode, opposite in ((MODE_TR, False), (MODE_TR, True), (MODE_NC, False)):
        slots = reference_sets(mode, nodes, z)
        if opposite:
            slots = slots[z:] + slots[:z]
        want = [(s, t, r) for s, (d, on_air) in enumerate(slots, 1) for t in on_air for r in receivers(d, t, nodes)]
        got = list(zip(*(c.tolist() for c in period_events(mode, z, nodes, opposite))))
        assert sorted(got) == sorted(want), (mode, opposite)
    assert tr_schedule(nodes, z).sets == tuple(reference_sets(MODE_TR, nodes, z))
    assert nc_schedule(nodes, z).sets == tuple(reference_sets(MODE_NC, nodes, z))


def test_reference_imports_nothing_from_multihop_but_schedule_config():
    """The oracle stays independent of the program's slot rules: it cannot
    import ``period_events`` or a schedule builder and call it a reference."""
    tree = ast.parse((Path(__file__).resolve().parent / "reference.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.name for a in node.names if a.name.split(".")[0] == "multihop"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "multihop":
            imported += [a.name for a in node.names]
    assert imported == ["ScheduleConfig"]
