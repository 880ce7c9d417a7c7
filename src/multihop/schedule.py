"""Periodic TDMA transmit sets for a line of N_o nodes and reuse period Z.

Node indices here are positions along a route (1 = source end). Traditional
relaying, ``tr_schedule(nodes, z)``, alternates forward and reverse
half-cycles of Z slots each. Coded relaying, ``nc_schedule(nodes, z)``, reuses
the forward progression alone, every node broadcasting to both neighbours, so
its period is Z. A slot's transmit set is one progression of nodes Z apart,
all sending one way; ``Schedule.sets[i]`` is slot i + 1's (direction, frozenset
of nodes on air). Both functions first validate a ``ScheduleConfig`` of their mode.

``period_events``, a stream's (slot, transmitter, receiver) columns, is the one
encoding of the slot rules and ``period`` of the period's length; both engines
read them. ``slot_plan`` is the one grouping of those columns by slot: the packet
engine plays it and the builders take each slot's senders from it. A sender serves
the directions its receivers' hops travel, so only the builders write a slot's
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


def period_events(mode, z, nodes, opposite=False):
    """Slot, transmitter and receiver route positions of one stream's events.

    The closed forms of the schedules: in TR node i forwards in slot
    (i-1) % Z + 1 and node i >= 2 sends reverse in slot Z + (N-i) % Z + 1;
    the opposite phase shifts every slot by Z. In NC node i broadcasts in
    slot (i-1) % Z + 1 to i-1 and i+1 inside the route.
    """
    low, high = np.arange(1, nodes), np.arange(2, nodes + 1)  # senders toward the high / low end
    tx = np.concatenate([low, high])
    rx = np.concatenate([low + 1, high - 1])
    if mode == MODE_NC:
        return (tx - 1) % z + 1, tx, rx
    slot = np.concatenate([(low - 1) % z + 1, z + (nodes - high) % z + 1])
    if opposite:
        slot = (slot + z - 1) % (2 * z) + 1
    return slot, tx, rx


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
    plan = {}  # first each occupied slot's {transmitter: [its receiver triples]}
    for s, tx, rx in sorted(zip(*[c.tolist() for c in period_events(config.mode, config.z, config.nodes)])):
        if s not in plan:
            plan[s] = {}
        plan[s].setdefault(tx, []).append((rx, int(rx < tx), rx in ends))
    return {s: [(tx, tuple(hears)) for tx, hears in txs.items()] for s, txs in plan.items()}


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
