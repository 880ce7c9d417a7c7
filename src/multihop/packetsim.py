"""Packet-level replay of the TDMA schedules, independent of the radio model.

Sources stay saturated: the low end injects a fresh packet at every one of its transmit slots,
the high end likewise in the opposite direction. Delivery here never depends on SINR; the point
is to measure latency and delivery rate of the schedules themselves and compare them with the
closed-form predictions. A run observes its own steady state: warmup ends at the first slot by
which both directions have delivered, and the run stops once each direction has delivered 3
packets injected after warmup and 2 whole periods have passed. An explicit ``num_periods`` fixes
the length instead.

Inside the engine a label is an int with bit ``PacketId.alphabet_index`` set per component: XOR
is ``^``, a strip is ``& ~known`` and a lone component has ``r & (r - 1) == 0``. The engine is
one generator of per-slot sends and stores that plays ``schedule.slot_plan``, which lists only the
slots that have a sender, so neither a run's time nor its memory grows with a period's empty slots.
A run drains it and keeps the held and known rows, the plan, and packets as bit indices: no slot
log, so measuring builds no ``PacketId``, ``Delivery`` or ``SlotRecord`` (``injections``,
``deliveries`` and ``slots`` build them on first read). Records and trace text re-run the
deterministic engine from slot 1 and fill in the empty slots; trace text names a packet from its
bit index alone. A run is refused before it is planned if what it keeps could pass 2**31 B: 3(N+1)
labels of about 40 B and a bit per packet (2 a period, 4 B per 30 bits), 640 B a period for
injections and deliveries, and a plan of 800 B a node; each constant is above its peak measured on
64-bit CPython (at most 510 B a period and 760 B a node). A replay is refused before its first slot
if its text could pass 2**31 B (see ``SimTrace._replay``).
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property

from multihop.schedule import FORWARD, MODE_NC, MODE_TR, REVERSE, ScheduleConfig, period, slot_plan
from multihop.schedule import nc_schedule, tr_schedule  # unused here: perfbench/tracer.py wraps both at this module


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
        return _name(self.alphabet_index)


def _name(idx):
    """A packet's name from its bit index: A..Z, then F<seq> forward and R<seq> reverse."""
    if idx < 26:
        return chr(ord("A") + idx)
    return "%s%d" % ("FR"[idx & 1], (idx >> 1) + 1)


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
    _held: tuple = field(repr=False, compare=False)  # label function, then the forward and reverse rows after the slot

    @cached_property
    def stored(self):
        """(node, direction, label) snapshot after the slot, built on first read."""
        label, fwd, rev = self._held
        return tuple([(n, d, label(m)) for d, row in ((FORWARD, fwd), (REVERSE, rev)) for n, m in enumerate(row) if m])


@dataclass
class SimTrace:
    config: ScheduleConfig = field(repr=False)  # the run's; mode, nodes, z and period are read from it
    mode: str = field(init=False)
    nodes: int = field(init=False)
    z: int = field(init=False)
    period: int = field(init=False)
    total_slots: int = 0  # slots the run took
    warmup_slots: int = 0  # first slot by which both directions delivered, else the run's length
    dropped: int = 0  # stored packets overwritten before being relayed
    # packets as bit indices (PacketId.alphabet_index), which the injections and
    # deliveries properties turn into objects on first read: index -> first tx
    # slot, and (index, node, slot, latency) per delivery in delivery order
    _injected: dict = field(default_factory=dict)
    _delivered: list = field(default_factory=list)

    def __post_init__(self):
        c = self.config
        self.mode, self.nodes, self.z, self.period = c.mode, c.nodes, c.z, period(c.mode, c.z)

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
        """One SlotRecord per timeslot, built from a replay on first read."""
        packets = {p.alphabet_index: p for p in self.injections}
        label = cache(lambda mask: frozenset([packets[i] for i in _bits(mask)]))
        return [
            SlotRecord(
                slot=t,
                scheduled=scheduled,
                transmissions=dict(zip(sent[::2], map(label, sent[1::2]))),
                xors=tuple([(n, label(mask)) for n, mask in xors]),
                deliveries=tuple(self.deliveries[done:delivered]),
                _held=(label, *map(tuple, rows)),
            )
            for t, scheduled, sent, _, xors, done, delivered, rows in self._replay(1, self.total_slots)
        ]

    def _replay(self, first, last):
        """Re-run the deterministic engine from slot 1; per slot first..last yield (slot, its senders
        on air, sent, stored, [(node, XOR formed)], deliveries before and after it, (forward, reverse) rows).
        Refused before the first slot if the text of slots 1..last and the re-run's records could pass 2**31 B:
        400 B a slot and 200 B a node a period, each above its peak measured on 64-bit CPython (313 and 129)."""
        need = 400 * last + 200 * self.nodes * (last // self.period + 1)
        if need > 2**31:
            raise ValueError("trace too large: slots 1..%d could take %.3g GB at nodes=%d z=%d, over the "
                             "2.15 GB limit" % (last, need / 1e9, self.nodes, self.z))
        plan = slot_plan(self.config)
        on_air = {s: tuple([n for n, _ in senders]) for s, senders in plan.items()}
        broadcasters = {n for senders in plan.values() for n, hears in senders if len(hears) == 2}
        rerun, done = SimTrace(self.config, total_slots=last), 0  # records what this run recorded
        rows = ([0] * (self.nodes + 1), [0] * (self.nodes + 1))  # forward, reverse label held per node
        steps = _engine(rerun, plan, rows)
        for t in range(1, last + 1):  # every slot: an empty one sends nothing and keeps the rows
            scheduled = on_air.get((t - 1) % self.period + 1, ())
            _, sent, touched = next(steps) if scheduled else (t, (), ())
            delivered = len(rerun._delivered)
            if t >= first:
                fwd, rev = rows
                heard = sorted(broadcasters.intersection(touched[::3]))
                xors = [(n, fwd[n] ^ rev[n]) for n in heard if fwd[n] and rev[n]]
                yield t, scheduled, sent, touched, xors, done, delivered, rows
            done = delivered


def _bits(mask):
    """Bit indices set in a label, lowest first: its packets in injection order."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


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
    return _simulate(ScheduleConfig(nodes=nodes, z=z, mode=MODE_TR), num_periods)


def run_nc_sim(nodes, z, num_periods=None):
    """Simulate two-way relaying with XOR coding; returns a SimTrace.

    Every scheduled node broadcasts to both neighbours. A relay holding both a
    forward and a reverse packet sends their XOR; a receiver strips whatever
    components it already knows, learns the single unknown that remains, and
    stores it for the opposite-neighbour hop. Endpoints decode the same way,
    which is what lets a combined packet serve both directions at once.
    """
    return _simulate(ScheduleConfig(nodes=nodes, z=z, mode=MODE_NC), num_periods)


def _engine(trace, plan, stored):
    """Play a trace's config for slots 1..``trace.total_slots``, which the caller may lower as the run
    goes, recording injections, deliveries and drops in ``trace`` and holding labels in ``stored``, the
    (forward, reverse) label rows per node, all 0 at first and updated in place. Only the plan's slots
    act, so it steps from one to the next; per such slot it yields (slot, [node, label, ...] sent,
    [receiver, direction index, label, ...] stored). Node 1 injects forward and node N_o reverse at each
    of their slots. A relay sends the XOR of what it stores for its receivers' directions of travel,
    one for a directed transmitter and both for a broadcaster. A receiver strips the components it
    knows; a relay stores the residual for the next hop and an endpoint delivers it. Store-and-forward
    labels never meet a second component, so the same rules play both modes. The schedules are
    half-duplex, so each transmission is received as soon as it is formed."""
    nodes, period = trace.nodes, trace.period
    known = [0] * (nodes + 1)
    injected, delivered = trace._injected, trace._delivered
    fresh = [0, 1]  # next bit index per direction
    for start in range(0, trace.total_slots, period):
        for s, senders in plan.items():
            t = start + s
            if t > trace.total_slots:
                return
            sent, touched = [], []
            for node, hears in senders:
                if node == 1 or node == nodes:
                    d = 0 if node == 1 else 1
                    injected[fresh[d]] = t
                    label = 1 << fresh[d]
                    fresh[d] += 2
                    known[node] |= label
                else:
                    label = held = 0
                    for _, d, _ in hears:  # the directions its receivers' hops travel
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
                    else:
                        if stored[d][rx]:
                            trace.dropped += 1
                        stored[d][rx] = residual
                        touched += (rx, d, residual)
            yield t, sent, touched


def _simulate(config, num_periods):
    """Drain a config's engine to its steady state, or for ``num_periods``, keeping what it measures.
    With no ``num_periods`` a run that finds no steady state within its cap raises ``SteadyStateError``."""
    if num_periods is not None and (type(num_periods) is not int or num_periods < 1):
        raise ValueError("num_periods must be None or an int >= 1, not %r" % (num_periods,))
    nodes, z = config.nodes, config.z
    # a moving packet crosses a hop per period, so fill and latency each stay under N periods
    periods = 4 * nodes if num_periods is None else num_periods
    # bytes a run could keep: held forward, held reverse and known rows, injections and deliveries, plan
    need = 3 * (nodes + 1) * (40 + periods // 3) + 640 * periods + 800 * nodes
    if need > 2**31:
        raise ValueError("run too large: it could keep %.3g GB at nodes=%d z=%d periods=%d, over the "
                         "2.15 GB limit" % (need / 1e9, nodes, z, periods))
    trace = SimTrace(config)
    injected, delivered, period = trace._injected, trace._delivered, trace.period
    slots = trace.total_slots = periods * period
    # late deliveries per direction, of packets injected after warmup (0, so all count, until both
    # directions have delivered); both change only in slots that deliver, which is where ``stop`` is set
    warmup, late, seen, stop = 0, [0, 0], 0, 0
    for t, _, _ in _engine(trace, slot_plan(config), ([0] * (nodes + 1), [0] * (nodes + 1))):
        if len(delivered) > seen:
            for idx, _, _, _ in delivered[seen:]:
                late[idx & 1] += injected[idx] > warmup
            seen = len(delivered)
            if warmup and num_periods is None and min(late) >= 3:
                stop = max(t, warmup + 2 * period - 1)
                trace.total_slots = min(stop, slots)  # the engine plays no slot past it, empty or not
            elif not warmup and late[0] and late[1]:
                warmup, late = t, [0, 0]
    if num_periods is None and not 0 < stop <= slots:
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


def _slot_cells(trace, first, last, sep, delivery):
    """(slot, senders, transmissions, XORs formed, deliveries) text cells for slots first..last,
    from the replay: senders by ';', 'node:label' and ``delivery % (packet, node, latency)`` by sep."""
    def name(mask):
        return "^".join(map(_name, _bits(mask)))

    for t, scheduled, sent, _, xors, done, delivered, _ in trace._replay(first, last):
        yield (
            t,
            ";".join(map(str, scheduled)),
            sep.join(["%d:%s" % (n, name(mask)) for n, mask in zip(sent[::2], sent[1::2])]),
            sep.join(["%d:%s" % (n, name(mask)) for n, mask in xors]),
            sep.join([delivery % (_name(idx), node, lat) for idx, node, _, lat in trace._delivered[done:delivered]]),
        )


def render_trace(trace, first=1, last=None):
    """Slot-by-slot text table of a trace, one line per timeslot."""
    last = trace.total_slots if last is None else last
    if not 1 <= first <= last <= trace.total_slots:
        raise ValueError("slots %d..%d outside the trace's 1..%d" % (first, last, trace.total_slots))
    head = "%s nodes=%d z=%d period=%d" % (trace.mode, trace.nodes, trace.z, trace.period)
    rows = [("slot", "transmissions", "xor formed", "deliveries")]
    for t, _, tx, xors, got in _slot_cells(trace, first, last, " ", "%s->%d L=%d"):
        rows.append((str(t), tx or "-", xors or "-", got or "-"))
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    lines = [head]
    for i, r in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def trace_to_csv_text(trace):
    """Machine-readable form of a trace; entries within a cell use ';'."""
    cells = _slot_cells(trace, 1, trace.total_slots, ";", "%s@%d:L%d")
    return "\n".join(["slot,scheduled,transmissions,xors,deliveries"] + ["%d,%s,%s,%s,%s" % c for c in cells]) + "\n"
