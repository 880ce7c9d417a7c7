"""Packet-level replay of the TDMA schedules, independent of the radio model.

Sources stay saturated: the low end injects a fresh packet at every one of its
transmit slots, the high end likewise in the opposite direction. Delivery here
never depends on SINR; the point is to measure latency and delivery rate of
the schedules themselves and compare them with the closed-form predictions.
A run observes its own steady state: warmup ends at the first slot by which
both directions have delivered, and the run stops once each direction has
delivered 3 packets injected after warmup and 2 whole periods have passed.
An explicit ``num_periods`` fixes the length instead.

Inside the engine a label is an int with bit ``PacketId.alphabet_index`` set
per component: XOR is ``^``, a strip is ``& ~known`` and a lone component has
``r & (r - 1) == 0``. A run keeps packets as bit indices and one compact log
entry per slot, so measuring a trace builds no ``PacketId``, ``Delivery`` or
``SlotRecord``: ``SimTrace.injections``, ``deliveries`` and ``slots`` build
them on first read, and each record its ``stored`` snapshot only when read.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property

from multihop.schedule import (
    BROADCAST,
    FORWARD,
    MODE_NC,
    MODE_TR,
    REVERSE,
    ScheduleConfig,
    nc_schedule,
    receivers,
    tr_schedule,
)


class SteadyStateError(RuntimeError):
    """Raised when a trace is too short or too irregular to measure."""


@dataclass(frozen=True, order=True)
class PacketId:
    """One source packet: direction of travel, per-direction sequence, origin node."""

    direction: str
    seq: int
    origin: int

    @property
    def alphabet_index(self):
        # forward packets take A, C, E..., reverse packets B, D, F...
        offset = 0 if self.direction == FORWARD else 1
        return 2 * (self.seq - 1) + offset

    @property
    def name(self):
        idx = self.alphabet_index
        if idx < 26:
            return chr(ord("A") + idx)
        prefix = "F" if self.direction == FORWARD else "R"
        return "%s%d" % (prefix, self.seq)


def label_name(label):
    """Readable form of a label, components in injection order, e.g. 'A^B'."""
    if not label:
        return "-"
    return "^".join(p.name for p in sorted(label, key=lambda p: p.alphabet_index))


@dataclass(frozen=True)
class Delivery:
    packet: PacketId
    node: int
    slot: int
    latency: int


@dataclass(frozen=True)
class SlotRecord:
    """Everything that happened in one timeslot."""

    slot: int
    scheduled: tuple
    transmissions: dict
    xors: tuple  # (node, combined label) formed at the end of this slot
    deliveries: tuple
    _held: tuple = field(repr=False, compare=False)  # label function, then the log entry's forward and reverse rows

    @cached_property
    def stored(self):
        """(node, direction, label) snapshot after the slot, built on first read."""
        label, fwd, rev = self._held
        return tuple((n, d, label(m)) for d, row in ((FORWARD, fwd), (REVERSE, rev)) for n, m in enumerate(row) if m)


@dataclass
class SimTrace:
    mode: str
    nodes: int
    z: int
    period: int
    warmup_slots: int  # first slot by which both directions delivered, else the run's length
    dropped: int = 0  # stored packets overwritten before being relayed
    # packets as bit indices (PacketId.alphabet_index), which the injections and
    # deliveries properties turn into objects on first read: index -> first tx
    # slot, and (index, node, slot, latency) per delivery in delivery order
    _injected: dict = field(default_factory=dict)
    _delivered: list = field(default_factory=list)
    _schedule: object = field(default=None, repr=False)
    # per slot: ([node, label, ...] sent, nodes that stored a label, deliveries
    # so far, forward and reverse label held per node), labels as bitmasks
    _log: list = field(default_factory=list, repr=False)

    @property
    def total_slots(self):
        return len(self._log)

    def _packet(self, idx):
        d = idx & 1
        return PacketId(direction=(FORWARD, REVERSE)[d], seq=(idx >> 1) + 1, origin=(1, self.nodes)[d])

    @cached_property
    def injections(self):
        """{PacketId: first tx slot} in injection order, built on first read."""
        return {self._packet(idx): t for idx, t in self._injected.items()}

    @cached_property
    def deliveries(self):
        """Deliveries in the order they happened, built on first read."""
        packets = {p.alphabet_index: p for p in self.injections}
        return [Delivery(packets[idx], node, t, lat) for idx, node, t, lat in self._delivered]

    @cached_property
    def slots(self):
        """One SlotRecord per timeslot, built from the log on first read."""
        return self._records(1, self.total_slots)

    def _records(self, first, last):
        """SlotRecords for slots first..last; each log entry stands on its own."""
        packets = {1 << p.alphabet_index: p for p in self.injections}
        sets = self._schedule.sets
        scheduled = [tuple(sorted(on_air)) for _, on_air in sets]
        broadcasters = {n for direction, on_air in sets if direction == BROADCAST for n in on_air}

        @cache
        def label(mask):
            out = []
            while mask:
                out.append(packets[mask & -mask])
                mask &= mask - 1
            return frozenset(out)

        records, done = [], self._log[first - 2][2] if first > 1 else 0
        for t, (sent, touched, delivered, fwd, rev) in enumerate(self._log[first - 1 : last], first):
            xors = [(n, fwd[n] ^ rev[n]) for n in sorted(broadcasters.intersection(touched)) if fwd[n] and rev[n]]
            records.append(
                SlotRecord(
                    slot=t,
                    scheduled=scheduled[(t - 1) % self.period],
                    transmissions=dict(zip(sent[::2], map(label, sent[1::2]))),
                    xors=tuple((n, label(mask)) for n, mask in xors),
                    deliveries=tuple(self.deliveries[done:delivered]),
                    _held=(label, fwd, rev),
                )
            )
            done = delivered
        return records


def tr_latency(nodes, z):
    """Slots from first transmission to delivery under store-and-forward."""
    return nodes - 1 + z * ((nodes - 2) // z)


def nc_latency_forward(nodes):
    """Forward packets ride the schedule wave: one hop per slot."""
    return nodes - 1


def nc_latency_reverse(nodes, z):
    """Reverse packets wait z-1 slots at each relay after the first hop."""
    return (nodes - 2) * (z - 1) + 1


def run_tr_sim(nodes, z, num_periods=None):
    """Simulate store-and-forward relaying; returns a SimTrace.

    Each node buffers at most one packet per direction. A forward packet moves
    one hop per forward slot and sits out the reverse half-cycles, which is
    where the closed-form latency picks up its z * floor((N_o-2)/z) term.
    """
    return _simulate(tr_schedule(ScheduleConfig(nodes=nodes, z=z, mode=MODE_TR)), num_periods)


def run_nc_sim(nodes, z, num_periods=None):
    """Simulate two-way relaying with XOR coding; returns a SimTrace.

    Every scheduled node broadcasts to both neighbours. A relay holding both a
    forward and a reverse packet sends their XOR; a receiver strips whatever
    components it already knows, learns the single unknown that remains, and
    stores it for the opposite-neighbour hop. Endpoints decode the same way,
    which is what lets a combined packet serve both directions at once.
    """
    return _simulate(nc_schedule(ScheduleConfig(nodes=nodes, z=z, mode=MODE_NC)), num_periods)


def _simulate(schedule, num_periods):
    """Replay a schedule with every payload an XOR label of source packets.

    Node 1 injects forward and node N_o reverse at each of their slots. A
    relay sends the XOR of what it stores for the directions it serves, one
    for a directed transmitter and both for a broadcast. A receiver strips the
    components it knows; a relay stores the residual for the next hop and an
    endpoint delivers it. Store-and-forward labels never meet a second
    component, so the same rules replay both modes. The schedules are
    half-duplex, so each transmission is received as soon as it is formed.
    With no ``num_periods`` a run that finds no steady state within its cap
    raises ``SteadyStateError``.
    """
    if num_periods is not None and (type(num_periods) is not int or num_periods < 1):
        raise ValueError("num_periods must be None or an int >= 1, not %r" % (num_periods,))
    config = schedule.config
    nodes, period = config.nodes, schedule.period
    trace = SimTrace(mode=config.mode, nodes=nodes, z=config.z, period=period, warmup_slots=0, _schedule=schedule)
    serves = {FORWARD: (0,), REVERSE: (1,), BROADCAST: (0, 1)}  # indices into stored
    ends = (1, nodes)
    # each slot of the period: its transmitters in node order as (node, directions
    # served, ((receiver, direction of travel, receiver is an endpoint), ...))
    plan = [
        [
            (tx, serves[direction], tuple((rx, int(rx < tx), rx in ends) for rx in receivers(direction, tx, nodes)))
            for tx in sorted(on_air)
        ]
        for direction, on_air in schedule.sets
    ]
    stored = ([0] * (nodes + 1), [0] * (nodes + 1))  # forward, reverse label held per node
    known = [0] * (nodes + 1)
    injected, delivered = trace._injected, trace._delivered
    fresh = [0, 1]  # next bit index per direction
    # a moving packet crosses a hop per period, so fill and latency each stay
    # under nodes * period slots
    slots = 4 * nodes * period if num_periods is None else num_periods * period
    # deliveries per direction injected after warmup; warmup stays 0, so every
    # delivery counts, until both directions have delivered
    warmup, late = 0, [0, 0]

    for t in range(1, slots + 1):
        sent, touched = [], []
        for node, dirs, hears in plan[(t - 1) % period]:
            if node == 1 or node == nodes:
                d = 0 if node == 1 else 1
                injected[fresh[d]] = t
                label = 1 << fresh[d]
                fresh[d] += 2
                known[node] |= label
            else:
                label = held = 0
                for d in dirs:
                    label ^= stored[d][node]
                    held |= stored[d][node]
                    stored[d][node] = 0
                if not held:
                    continue  # scheduled but nothing to relay yet
            sent += (node, label)
            for rx, d, endpoint in hears:
                residual = label & ~known[rx]
                if not residual:
                    continue
                single = not residual & (residual - 1)
                if single:
                    known[rx] |= residual
                if endpoint:
                    if single:
                        idx = residual.bit_length() - 1
                        delivered.append((idx, rx, t, t - injected[idx] + 1))
                        late[d] += injected[idx] > warmup
                else:
                    if stored[d][rx]:
                        trace.dropped += 1
                    stored[d][rx] = residual
                    touched.append(rx)
        trace._log.append((sent, touched, len(delivered), tuple(stored[0]), tuple(stored[1])))
        if not warmup:
            if late[0] and late[1]:
                warmup, late = t, [0, 0]
        elif num_periods is None and min(late) >= 3 and t - warmup + 1 >= 2 * period:
            break
    else:
        if num_periods is None:
            raise SteadyStateError("no steady state within %d slots" % slots)
    trace.warmup_slots = warmup or slots
    return trace


def measured_latency(trace, direction):
    """Steady-state latency in slots for one direction of travel.

    Uses deliveries whose packet was injected after the warmup window, needs
    at least three of them, and insists they agree.
    """
    if direction not in (FORWARD, REVERSE):
        raise ValueError("direction must be %r or %r, not %r" % (FORWARD, REVERSE, direction))
    d, injected = (FORWARD, REVERSE).index(direction), trace._injected
    lats = [lat for idx, _, _, lat in trace._delivered if idx & 1 == d and injected[idx] > trace.warmup_slots]
    if len(lats) < 3:
        raise SteadyStateError(
            "only %d %s deliveries past warmup; run more periods" % (len(lats), direction)
        )
    if len(set(lats)) != 1:
        raise SteadyStateError("latencies not constant past warmup: %r" % (sorted(set(lats)),))
    return lats[0]


def measured_delivery_rate(trace):
    """Delivered packets per timeslot, both directions combined, as a Fraction.

    Counts over whole schedule periods from the warmup slot, when both
    directions have begun delivering, so the value is exact.
    """
    start = trace.warmup_slots
    whole = (trace.total_slots - start + 1) // trace.period
    if whole < 2:
        raise SteadyStateError("fewer than 2 whole periods after both directions began delivering")
    end = start + whole * trace.period  # window [start, end)
    count = sum(1 for _, _, t, _ in trace._delivered if start <= t < end)
    return Fraction(count, whole * trace.period)


def _label_cell(pairs, sep):
    """(node, label) pairs as 'node:label' entries joined by sep, e.g. '2:A^B'."""
    return sep.join("%d:%s" % (n, label_name(label)) for n, label in pairs)


def _delivery_cell(rec):
    return " ".join("%s->%d L=%d" % (d.packet.name, d.node, d.latency) for d in rec.deliveries)


def render_trace(trace, first=1, last=None):
    """Slot-by-slot text table of a trace, one line per timeslot."""
    if last is None:
        last = trace.total_slots
    if not 1 <= first <= last <= trace.total_slots:
        raise ValueError("slots %d..%d outside the trace's 1..%d" % (first, last, trace.total_slots))
    head = "%s nodes=%d z=%d period=%d" % (trace.mode, trace.nodes, trace.z, trace.period)
    rows = [("slot", "transmissions", "xor formed", "deliveries")]
    for rec in trace._records(first, last):
        tx, xors = _label_cell(sorted(rec.transmissions.items()), " "), _label_cell(rec.xors, " ")
        rows.append((str(rec.slot), tx or "-", xors or "-", _delivery_cell(rec) or "-"))
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    lines = [head]
    for i, r in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def trace_to_csv_text(trace):
    """Machine-readable form of a trace; entries within a cell use ';'."""
    lines = ["slot,scheduled,transmissions,xors,deliveries"]
    for rec in trace.slots:
        lines.append(
            "%d,%s,%s,%s,%s"
            % (
                rec.slot,
                ";".join(str(n) for n in rec.scheduled),
                _label_cell(sorted(rec.transmissions.items()), ";"),
                _label_cell(rec.xors, ";"),
                ";".join("%s@%d:L%d" % (d.packet.name, d.node, d.latency) for d in rec.deliveries),
            )
        )
    return "\n".join(lines) + "\n"
