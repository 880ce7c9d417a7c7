"""Periodic TDMA transmit sets for a line of N_o nodes and reuse period Z.

Node indices here are positions along a route (1 = source end). Traditional
relaying alternates a forward half-cycle and a reverse half-cycle, each Z
slots long. Coded relaying reuses the forward progression alone, every node
broadcasting to both neighbours, so its period is Z.
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


@dataclass(frozen=True)
class Transmitter:
    stream: int
    node: int
    direction: str

    def receivers(self, nodes):
        """Route positions this transmission is addressed to."""
        if self.direction == FORWARD:
            return (self.node + 1,)
        if self.direction == REVERSE:
            return (self.node - 1,)
        out = []
        if self.node > 1:
            out.append(self.node - 1)
        if self.node < nodes:
            out.append(self.node + 1)
        return tuple(out)


@dataclass(frozen=True)
class TransmitSet:
    slot: int
    transmitters: frozenset

    def nodes(self):
        return frozenset(t.node for t in self.transmitters)


@dataclass(frozen=True)
class Schedule:
    config: ScheduleConfig
    stream: int
    sets: tuple

    @property
    def period(self):
        return len(self.sets)

    def slot(self, global_slot):
        """TransmitSet active in a 1-based global slot index."""
        return self.sets[(global_slot - 1) % self.period]


def forward_set(nodes, z, slot):
    """Nodes sending toward the high end in forward slot 1..z.

    Node i transmits in slot i and again every z positions up the line; the
    last node never appears because it has nothing to forward.
    """
    _check_slot(nodes, z, slot)
    top = (nodes - 1 - slot) // z
    return frozenset(slot + n * z for n in range(0, top + 1))


def reverse_set(nodes, z, slot):
    """Nodes sending toward the low end in reverse slot 1..z, mirror of forward."""
    _check_slot(nodes, z, slot)
    top = (nodes - 1 - slot) // z
    return frozenset(nodes + 1 - slot - n * z for n in range(0, top + 1))


def nc_transmit_set(nodes, z, slot):
    """Broadcast set for coded relaying: the forward progression with the far
    source included, so both ends inject every z slots.

    The far-end node N_o lands in the slot its residue i = ((N_o-1) mod z)+1
    assigns it; transmitters stay z apart, which keeps every addressed
    neighbour free to listen.
    """
    _check_slot(nodes, z, slot)
    top = (nodes - slot) // z
    return frozenset(slot + n * z for n in range(0, top + 1))


def _check_slot(nodes, z, slot):
    if nodes < 3:
        raise ValueError("need at least 3 nodes, got %r" % (nodes,))
    if z < 2:
        raise ValueError("reuse period must be at least 2, got %r" % (z,))
    if not (1 <= slot <= z):
        raise ValueError("slot %r outside period 1..%d" % (slot, z))


def tr_schedule(config, stream=1):
    """Store-and-forward schedule: z forward slots then z reverse slots."""
    if config.mode != MODE_TR:
        raise ValueError("config mode is %r, expected %r" % (config.mode, MODE_TR))
    sets = []
    for slot in range(1, config.z + 1):
        txs = frozenset(Transmitter(stream, n, FORWARD) for n in forward_set(config.nodes, config.z, slot))
        sets.append(TransmitSet(slot=slot, transmitters=txs))
    for slot in range(1, config.z + 1):
        txs = frozenset(Transmitter(stream, n, REVERSE) for n in reverse_set(config.nodes, config.z, slot))
        sets.append(TransmitSet(slot=config.z + slot, transmitters=txs))
    sched = Schedule(config=config, stream=stream, sets=tuple(sets))
    _check_half_duplex(sched)
    return sched


def nc_schedule(config, stream=1):
    """Coded-relaying schedule: every node broadcasts in its progression slot."""
    if config.mode != MODE_NC:
        raise ValueError("config mode is %r, expected %r" % (config.mode, MODE_NC))
    sets = []
    for slot in range(1, config.z + 1):
        txs = frozenset(
            Transmitter(stream, n, BROADCAST) for n in nc_transmit_set(config.nodes, config.z, slot)
        )
        sets.append(TransmitSet(slot=slot, transmitters=txs))
    sched = Schedule(config=config, stream=stream, sets=tuple(sets))
    _check_half_duplex(sched)
    return sched


def _check_half_duplex(sched):
    # no node may be an addressed receiver while it is itself transmitting
    nodes = sched.config.nodes
    for ts in sched.sets:
        sending = ts.nodes()
        for t in ts.transmitters:
            for r in t.receivers(nodes):
                if r in sending:
                    raise ValueError(
                        "slot %d schedules node %d to receive from node %d while transmitting"
                        % (ts.slot, r, t.node)
                    )
