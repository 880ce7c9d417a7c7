"""SINR and Shannon-rate evaluation of scheduled streams, per reception event.

Every transmission a schedule produces is heard somewhere; each addressed
(receiver, transmitter) pair in a slot is one reception event, and every other
node transmitting in that slot, in either stream, interferes with it. A
direction's bottleneck is the lowest rate over its events, and capacity per
timeslot divides the two bottlenecks by the schedule period: once by Z when
coded relaying moves both directions per cycle, once by 2Z when the cycle
serves each direction in its own half.

``stream_capacity`` takes a period's events straight from the schedules'
closed forms as numpy index arrays of slot, transmitter, receiver and
direction, with route positions mapped onto layout indices. One (slot x
node) on-air matrix and a received-power matrix P = Pt * K * (d_ref / D)^eta
give every event's SINR: an event's signal is P[rx, tx], and its
interference is the sum of P[rx] over the nodes on air in its slot, its own
transmitter masked out. This is the physical interference model of Gupta
and Kumar (The Capacity of Wireless Networks, IEEE Trans. IT 2000). The
interference sums are taken over blocks of events, in event order, each a
gather of about 128 KB of P's rows, so a call's memory does not grow with
events x nodes; each event's row and its sum are the same in any block. P is
built in place in a copy of the layout's distance matrix D. It depends only
on the layout and the radio, so it is built once per layout and radio,
together with the node pairs closer than the reference distance, and reused
read-only by every later call with that geometry object and an equal
radio. Each direction's bottleneck is the Shannon rate of its lowest SINR.
A report keeps its call's radio, SINRs and (stream, nodes, TR phase) per
stream; its cached ``events`` rebuilds the event rows from those closed forms.

The scalar reference the array path is tested against enumerates rows from
the (direction, positions on air) slots of ``build_schedules``' schedules in
``reception_events``, each position addressing ``receivers``, and computes each
SINR with ``event_sinr``'s link-budget calls. It and the ``events`` view feed
(slot, stream, transmitter, receiver) rows to one ``ReceptionEvent`` assembler.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from multihop.radio import REFERENCE_DISTANCE_M, noise_power, path_constant, received_power, shannon_rate, sinr
from multihop.schedule import (
    FORWARD,
    MODE_NC,
    MODE_TR,
    REVERSE,
    TR_PHASES,
    ScheduleConfig,
    Schedule,
    nc_schedule,
    receivers,
    tr_schedule,
)


@dataclass(frozen=True)
class ReceptionEvent:
    """One addressed reception: route positions, plus everything on air in its slot."""

    slot: int
    stream: int
    receiver: int
    transmitter: int
    direction: str  # direction the received content travels
    on_air: frozenset  # (stream, route position) of each transmitter in the slot; one set per slot

    @property
    def interferers(self):
        """Everything on air in the slot except the event's own transmitter."""
        return self.on_air - {(self.stream, self.transmitter)}


@dataclass(frozen=True)
class StreamCapacityReport:
    stream: int
    mode: str
    z: int
    forward_bottleneck_bps: float
    reverse_bottleneck_bps: float
    capacity_bps: float
    # the call's radio, its (stream, nodes, opposite) per stream, which with
    # mode and z rebuilds every event, and the SINRs of all its events in
    # event order as bytes: they compare and hash as values
    _events_of_call: tuple = field(repr=False)

    @cached_property
    def events(self):
        """(ReceptionEvent, sinr, rate_bps) triples in ``reception_events`` order,
        built on first read."""
        radio, streams, sinrs = self._events_of_call
        rows = list(zip(*(a.tolist() for a in _event_columns(self.mode, self.z, streams))))
        return tuple(
            (ev, v, shannon_rate(radio, v))
            for ev, v in zip(_events_from_rows(rows), np.frombuffer(sinrs).tolist())
            if ev.stream == self.stream
        )


def _events_from_rows(rows):
    """ReceptionEvents in row order from a list of (slot, stream, transmitter,
    receiver) rows of route positions; a slot's events share one on-air set."""
    on_air = {}
    for s, k, t, _ in rows:
        on_air.setdefault(s, set()).add((k, t))
    on_air = {s: frozenset(pairs) for s, pairs in on_air.items()}  # one set per slot
    return [
        ReceptionEvent(
            slot=s, stream=k, receiver=r, transmitter=t, direction=FORWARD if r > t else REVERSE, on_air=on_air[s]
        )
        for s, k, t, r in rows
    ]


def build_schedules(routes, mode, z, tr_phase="same"):
    """Per-stream schedules over route positions, slot-aligned across streams."""
    if tr_phase not in TR_PHASES:
        raise ValueError("tr_phase must be one of %r, got %r" % (TR_PHASES, tr_phase))
    schedules = {}
    for stream in sorted(routes):
        route = routes[stream]
        config = ScheduleConfig(nodes=route.num_nodes, z=z, mode=mode)
        if mode == MODE_TR:
            sched = tr_schedule(config)
            if tr_phase == "opposite" and stream == 2:
                sched = Schedule(config=config, sets=sched.sets[z:] + sched.sets[:z])
        else:
            sched = nc_schedule(config)
        schedules[stream] = sched
    return schedules


def reception_events(schedules, routes):
    """All reception events over one schedule period, with what is on air.

    The scalar reference for the index arrays ``stream_capacity`` builds.
    """
    periods = {s.period for s in schedules.values()}
    if len(periods) != 1:
        raise ValueError("streams must share one schedule period, got %r" % (sorted(periods),))
    period = periods.pop()
    rows = []
    for slot in range(1, period + 1):
        for stream in sorted(schedules):
            direction, on_air = schedules[stream].slot(slot)
            nodes = routes[stream].num_nodes
            rows.extend((slot, stream, t, rx) for t in sorted(on_air) for rx in receivers(direction, t, nodes))
    return _events_from_rows(rows)


def _layout_pair(routes, stream, position):
    route = routes[stream]
    return (route.stream, route.layout_node(position))


def event_interference(event, geometry, routes, radio):
    """Total unwanted power in watts at the event's receiver."""
    rx = _layout_pair(routes, event.stream, event.receiver)
    total = 0.0
    for stream, node in sorted(event.interferers):
        d = geometry.distance(rx, _layout_pair(routes, stream, node))
        total += received_power(radio, d)
    return total


def event_sinr(event, geometry, routes, radio):
    """SINR of one reception event under the shared radio parameters."""
    rx = _layout_pair(routes, event.stream, event.receiver)
    tx = _layout_pair(routes, event.stream, event.transmitter)
    signal = received_power(radio, geometry.distance(rx, tx))
    return sinr(signal, event_interference(event, geometry, routes, radio), noise_power(radio))


def capacity_per_slot(mode, z, forward_bps, reverse_bps):
    """Fold the two directional bottlenecks into capacity per timeslot."""
    if mode == MODE_NC:
        return (forward_bps + reverse_bps) / z
    if mode == MODE_TR:
        return (forward_bps + reverse_bps) / (2 * z)
    raise ValueError("unknown mode %r" % (mode,))


def _period_events(mode, z, nodes, opposite):
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


def _event_columns(mode, z, streams):
    """Slot, stream, transmitter and receiver route positions of a call's events
    in ``reception_events`` order, from (stream, nodes, opposite) per stream."""
    parts = []
    for stream, nodes, opposite in streams:
        slot, tx, rx = _period_events(mode, z, nodes, opposite)
        parts.append((slot, np.full(len(tx), stream), tx, rx))
    slot, stream_of, tx, rx = (np.concatenate(a) for a in zip(*parts))
    order = np.lexsort((rx, tx, stream_of, slot))
    return slot[order], stream_of[order], tx[order], rx[order]


_BLOCK_ENTRIES = 16_384  # float64 entries (128 KB) of power rows gathered per block of events


@lru_cache(maxsize=1)
def _received_power(geometry, radio):
    """Read-only P[i, j], power node j delivers to node i, with a zero diagonal,
    and the off-diagonal pairs closer than the reference (None when none are).

    P is built in place in the layout's distance-matrix copy, one operation of
    Pt * K * (d_ref / D)^eta at a time. Keyed on the geometry object and the
    radio's values: a sweep or a scan evaluates one layout and one radio at a time.
    """
    power = geometry.distance_matrix  # a copy, turned into P in place
    np.fill_diagonal(power, np.inf)  # no node hears itself: zero power on the diagonal
    close = power < REFERENCE_DISTANCE_M
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # non-finite SINRs are raised by the caller
        np.divide(REFERENCE_DISTANCE_M, power, out=power)
        power **= radio.path_loss_exponent
        power *= radio.tx_power_w * path_constant(radio)
    power.flags.writeable = close.flags.writeable = False
    return power, close if close.any() else None


def stream_capacity(geometry, routes, radio, mode, z, tr_phase="same"):
    """Capacity report per stream; interference crosses streams either way.

    Events come from the schedules' closed forms as index arrays, in the
    order ``reception_events`` lists them (slot, stream, transmitter,
    receiver); no schedule or event object is built unless ``events`` is read.
    """
    if tr_phase not in TR_PHASES:
        raise ValueError("tr_phase must be one of %r, got %r" % (TR_PHASES, tr_phase))
    if not routes:
        raise ValueError("no routes to schedule")
    streams = []  # tuple(list), not tuple(generator), which moved tracemalloc peaks via tuple free lists
    at = np.zeros((max(routes) + 1, geometry.config.nodes_per_stream + 1), dtype=np.intp)
    for stream, route in sorted(routes.items()):
        ScheduleConfig(nodes=route.num_nodes, z=z, mode=mode)  # validates nodes, z and mode
        streams.append((stream, route.num_nodes, mode == MODE_TR and tr_phase == "opposite" and stream == 2))
        at[stream, 1 : route.num_nodes + 1] = geometry.route_indices(route)  # (stream, position) -> matrix index
    slot, stream_of, tx, rx = _event_columns(mode, z, streams)
    tx_at, rx_at = at[stream_of, tx], at[stream_of, rx]
    forward = rx > tx

    power, close = _received_power(geometry, radio)
    on_air = np.zeros((slot.max() + 1, len(power)), dtype=bool)  # row = slot
    on_air[slot, tx_at] = True
    clash = np.flatnonzero(on_air[slot, rx_at])
    if clash.size:
        e = clash[0]
        raise ValueError(
            "slot %d schedules node %d to receive from node %d while transmitting" % (slot[e], rx[e], tx[e])
        )
    heard = np.empty(len(rx_at))  # interference per event, summed one block of events at a time
    step = max(1, _BLOCK_ENTRIES // len(power))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # non-finite SINRs are raised below
        for s in (slice(i, i + step) for i in range(0, len(rx_at), step)):
            listening = on_air[slot[s]]  # (event, node): node on air in the event's slot
            if close is not None and (too_close := close[rx_at[s]] & listening).any():
                e, j = np.argwhere(too_close)[0]
                raise ValueError(
                    "distance %.3f m below the %.1f m reference"
                    % (geometry.distance_matrix[rx_at[s.start + e], j], REFERENCE_DISTANCE_M)
                )
            block = power[rx_at[s]]
            block *= listening
            block[np.arange(len(block)), tx_at[s]] = 0.0  # masked, not subtracted: keeps small interference exact
            heard[s] = block.sum(axis=1)
            del block  # before the next block is gathered
        sinrs = power[rx_at, tx_at] / (heard + noise_power(radio))
    bad = np.flatnonzero(~np.isfinite(sinrs))
    if bad.size:
        e = bad[0]
        raise ValueError(
            "stream %d %s SINR is %r: the radio's powers overflow float64"
            % (stream_of[e], FORWARD if forward[e] else REVERSE, float(sinrs[e]))
        )

    events_of_call = (radio, tuple(streams), sinrs.tobytes())
    reports = {}
    for stream in sorted(routes):
        mine = stream_of == stream
        # log2 is monotone, so the rate of the lowest SINR is the lowest rate
        worst = [sinrs[mine & (forward == way)] for way in (True, False)]
        f, r = (shannon_rate(radio, float(w.min())) for w in worst)
        capacity = capacity_per_slot(mode, z, f, r)
        if not math.isfinite(capacity):
            raise ValueError("stream %d capacity is %r bps: the rates overflow float64" % (stream, capacity))
        reports[stream] = StreamCapacityReport(
            stream=stream,
            mode=mode,
            z=z,
            forward_bottleneck_bps=f,
            reverse_bottleneck_bps=r,
            capacity_bps=capacity,
            _events_of_call=events_of_call,
        )
    return reports

