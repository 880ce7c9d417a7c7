"""The slot rules of both schedules as set forms, and the addressing rule: the
tests' independent oracle.

``multihop.schedule.period_events`` is the program's only encoding of the TR
and NC slot rules, and both engines read it. These set forms write the same
rules a second way, one arithmetic progression of route positions per slot,
so the tests can check the program's columns and schedules against them;
``receivers`` writes who a sender addresses, which the program keeps only as
the columns' receiver entries. They import nothing from ``multihop`` but
``ScheduleConfig``, which validates N and Z, so direction names are literals;
``tests/test_schedule.py`` checks that.
"""

from multihop.schedule import ScheduleConfig


def forward_set(nodes, z, slot):
    """Nodes sending toward the high end in forward slot 1..z.

    Node i transmits in slot i and again every z positions up the line; the
    last node never appears because it has nothing to forward.
    """
    _check_slot(nodes, z, slot)
    return frozenset(range(slot, nodes, z))


def reverse_set(nodes, z, slot):
    """Nodes sending toward the low end in reverse slot 1..z, mirror of forward."""
    _check_slot(nodes, z, slot)
    return frozenset(range(nodes + 1 - slot, 1, -z))


def nc_transmit_set(nodes, z, slot):
    """Broadcast set for coded relaying: the forward progression with the far
    source included, so both ends inject every z slots.

    The far-end node N_o lands in the slot its residue i = ((N_o-1) mod z)+1
    assigns it; transmitters stay z apart, which keeps every addressed
    neighbour free to listen.
    """
    _check_slot(nodes, z, slot)
    return frozenset(range(slot, nodes + 1, z))


def _check_slot(nodes, z, slot):
    ScheduleConfig(nodes, z)  # validates nodes and z
    if not (1 <= slot <= z):
        raise ValueError("slot %r outside period 1..%d" % (slot, z))


def receivers(direction, node, nodes):
    """Route positions a node sending in ``direction`` on a line of ``nodes`` is
    addressed to: its upper neighbour forward, its lower one in reverse, and both
    inside the line for a broadcast, lower first."""
    if direction == "forward":
        return (node + 1,)
    if direction == "reverse":
        return (node - 1,)
    return tuple([n for n in (node - 1, node + 1) if 1 <= n <= nodes])
