"""Periodic TDMA transmit sets for a line of N_o nodes and reuse period Z.

Node indices here are positions along a route (1 = source end). Traditional
relaying alternates a forward half-cycle and a reverse half-cycle, each Z
slots long. Coded relaying reuses the forward progression alone, every node
broadcasting to both neighbours, so its period is Z. Each slot's transmit
set is one arithmetic progression of nodes Z apart, and every node in it sends
the same way; a ``Schedule`` holds, for slot i + 1 of its period, the pair
(direction, frozenset of nodes on air) as ``sets[i]``.
"""

from dataclasses import dataclass

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


def receivers(direction, node, nodes):
    """Route positions a node sending in ``direction`` on a line of ``nodes`` is addressed to."""
    if direction == FORWARD:
        return (node + 1,)
    if direction == REVERSE:
        return (node - 1,)
    return tuple([n for n in (node - 1, node + 1) if 1 <= n <= nodes])


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


def _slots(config, direction, set_form):
    """List of (direction, nodes on air) for each slot 1..z, the nodes from set_form."""
    return [(direction, set_form(config.nodes, config.z, slot)) for slot in range(1, config.z + 1)]


def tr_schedule(config):
    """Store-and-forward schedule: z forward slots then z reverse slots."""
    if config.mode != MODE_TR:
        raise ValueError("config mode is %r, expected %r" % (config.mode, MODE_TR))
    sets = _slots(config, FORWARD, forward_set) + _slots(config, REVERSE, reverse_set)
    return Schedule(config=config, sets=tuple(sets))


def nc_schedule(config):
    """Coded-relaying schedule: every node broadcasts in its progression slot."""
    if config.mode != MODE_NC:
        raise ValueError("config mode is %r, expected %r" % (config.mode, MODE_NC))
    return Schedule(config=config, sets=tuple(_slots(config, BROADCAST, nc_transmit_set)))
