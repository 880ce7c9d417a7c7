"""Periodic TDMA transmit sets for a line of N_o nodes and reuse period Z.

Node indices here are positions along a route (1 = source end). Traditional
relaying, ``tr_schedule(nodes, z)``, alternates forward and reverse
half-cycles of Z slots each. Coded relaying, ``nc_schedule(nodes, z)``, reuses
the forward progression alone, every node broadcasting to both neighbours, so
its period is Z. A slot's transmit set is one progression of nodes Z apart,
all sending one way; ``Schedule.sets[i]`` is slot i + 1's (direction, frozenset
of nodes on air). Both functions first validate a ``ScheduleConfig`` of their mode.

A stream's links, ``period_links`` (each hop's transmitter and receiver, forward then
reverse), and their phases, ``period_phases`` (each link's half of the period and place
in its progression), do not depend on Z; ``period_slots``, each link's slot, is the one
encoding of the slot rules, ``period`` of the period's length, and ``period_events``
puts slots and links side by side as arrays. The capacity engine caches links and phases
per layout, routes and radio. ``slot_plan`` groups the same columns, as ints, by slot:
the packet engine plays it and the builders take each slot's senders from it. A sender
serves the directions its receivers' hops travel, so only the builders write a slot's
direction. ``tests/reference.py`` holds the independent set forms and addressing.
"""

from dataclasses import dataclass

import numpy as np

FORWARD = "forward"
REVERSE = "reverse"
BROADCAST = "broadcast"

MODE_TR = "TR"
MODE_NC = "NC"

# relay phasing of stream 2 against stream 1 under TR
TR_PHASES = ("same", "opposite")


@dataclass(frozen=True)
class ScheduleConfig:
    nodes: int
    z: int
    mode: str = MODE_TR

    def __post_init__(self):
        if self.nodes < 3:
            raise ValueError("schedule needs at least 3 nodes, got %r" % (self.nodes,))
        if self.z < 2:
            raise ValueError(
                "reuse period %r too small: a node cannot transmit and receive "
                "in the same slot, so Z must be at least 2" % (self.z,)
            )
        if self.mode not in (MODE_TR, MODE_NC):
            raise ValueError("mode must be %r or %r" % (MODE_TR, MODE_NC))


@dataclass(frozen=True)
class Schedule:
    config: ScheduleConfig
    sets: tuple  # (direction, frozenset of nodes on air) per slot of the period

    @property
    def period(self):
        return len(self.sets)

    def slot(self, global_slot):
        """(direction, nodes on air) in a 1-based global slot index."""
        return self.sets[(global_slot - 1) % self.period]


def period_links(nodes):
    """Transmitter and receiver route positions of one stream's links over a period: its forward hops,
    then its reverse ones. Every hop carries one event per direction per period in both modes, whatever Z is."""
    low, high = range(1, nodes), range(2, nodes + 1)  # senders toward the high / low end
    return [*low, *high], [*high, *low]


def period_phases(mode, nodes, opposite=False):
    """Half of the period and place in the half's progression of each of ``period_links(nodes)``, whatever Z is:
    in TR node i forwards at place i - 1 of half 0 and node i >= 2 sends reverse at place N - i of half 1, the
    opposite phase swapping the halves; in NC node i broadcasts to i - 1 and i + 1 at place i - 1 of half 0."""
    tx, _ = period_links(nodes)
    hops = nodes - 1
    if mode == MODE_NC:
        return [False] * len(tx), [t - 1 for t in tx]
    return [opposite] * hops + [not opposite] * hops, [t - 1 for t in tx[:hops]] + [nodes - t for t in tx[hops:]]


def period_slots(mode, z, nodes, opposite=False):
    """Slot of each of ``period_links(nodes)`` at one Z, half * Z + place % Z + 1: Z slots to a half."""
    return [half * z + pos % z + 1 for half, pos in zip(*period_phases(mode, nodes, opposite))]


def period_events(mode, z, nodes, opposite=False):
    """Slot, transmitter and receiver route positions of one stream's events, side by side, as arrays."""
    return tuple([np.array(c) for c in (period_slots(mode, z, nodes, opposite), *period_links(nodes))])


def period(mode, z):
    """Slots in a mode's period: Z under NC, 2Z under TR (Z forward, then Z reverse)."""
    if mode == MODE_NC:
        return z
    if mode == MODE_TR:
        return 2 * z
    raise ValueError("unknown mode %r" % (mode,))


def slot_plan(config):
    """{slot of the period: its transmitters} in slot order, for the slots that have any: each in node
    order as (node, ((receiver, direction of travel, receiver is an endpoint), ...)), lower receiver
    first. A sender serves the directions its receivers' hops travel, so a broadcaster serves both."""
    ends = (1, config.nodes)
    plan = {}
    for s, tx, rx in sorted(zip(period_slots(config.mode, config.z, config.nodes), *period_links(config.nodes))):
        senders, hear = plan.setdefault(s, []), (rx, int(rx < tx), rx in ends)
        if senders and senders[-1][0] == tx:  # a broadcaster's higher receiver
            senders[-1] = (tx, (*senders[-1][1], hear))
        else:
            senders.append((tx, (hear,)))
    return plan


def _grouped(config):
    """The schedule whose slot s holds the senders ``slot_plan`` puts in slot s, maybe none; the only
    place a slot's direction is written."""
    mode, z, plan = config.mode, config.z, slot_plan(config)
    send = (FORWARD, REVERSE) if mode == MODE_TR else (BROADCAST, BROADCAST)  # in slots 1..Z, then Z+1..2Z
    sets = [(send[s > z], frozenset([n for n, _ in plan.get(s, ())])) for s in range(1, period(mode, z) + 1)]
    return Schedule(config=config, sets=tuple(sets))


def tr_schedule(nodes, z):
    """Store-and-forward schedule on a line of ``nodes``: z forward slots then z reverse slots."""
    return _grouped(ScheduleConfig(nodes=nodes, z=z, mode=MODE_TR))


def nc_schedule(nodes, z):
    """Coded-relaying schedule on a line of ``nodes``: every node broadcasts in its progression slot."""
    return _grouped(ScheduleConfig(nodes=nodes, z=z, mode=MODE_NC))
