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
node) on-air matrix and one pass over a received-power matrix
P = Pt * K * (d_ref / D)^eta, built from the layout's distance matrix D, give
every event's SINR: an event's signal is P[rx, tx], and its interference is
the sum of P[rx] over the nodes on air in its slot, its own transmitter
masked out. This is the physical interference model of Gupta and Kumar (The
Capacity of Wireless Networks, IEEE Trans. IT 2000). Each direction's
bottleneck is the Shannon rate of its lowest SINR. The report's ``events``
builds the ``ReceptionEvent`` objects, with their per-event rates, only when
it is read.

``build_schedules``, ``reception_events``, ``event_sinr`` and
``event_interference`` compute the same events and SINRs from schedule
objects with scalar link-budget calls; they are the reference the array path
is tested against.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property

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
    events: "ReceptionEventView"  # (ReceptionEvent, sinr, rate_bps) triples


class ReceptionEventView(Sequence):
    """One stream's (ReceptionEvent, sinr, rate_bps) triples in ``reception_events``
    order, built on first read from the event arrays of a ``stream_capacity`` call."""

    def __init__(self, stream, radio, slot, stream_of, tx, rx, sinrs):
        self._stream = stream
        self._radio = radio
        self._arrays = (slot, stream_of, tx, rx, sinrs)
        self._length = int((stream_of == stream).sum())

    @cached_property
    def _built(self):
        slot, stream_of, tx, rx, sinrs = self._arrays
        on_air = {}
        for s, pair in zip(slot.tolist(), zip(stream_of.tolist(), tx.tolist())):
            on_air.setdefault(s, set()).add(pair)
        on_air = {s: frozenset(pairs) for s, pairs in on_air.items()}  # one set per slot
        mine = stream_of == self._stream
        return tuple(
            (
                ReceptionEvent(
                    slot=s, stream=self._stream, receiver=r, transmitter=t,
                    direction=FORWARD if r > t else REVERSE, on_air=on_air[s],
                ),
                v,
                shannon_rate(self._radio, v),
            )
            for s, t, r, v in zip(slot[mine].tolist(), tx[mine].tolist(), rx[mine].tolist(), sinrs[mine].tolist())
        )

    def __len__(self):
        return self._length

    def __getitem__(self, index):
        return self._built[index]

    def __eq__(self, other):
        if isinstance(other, (ReceptionEventView, tuple)):
            return self._built == tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._built)

    def __repr__(self):
        return "ReceptionEventView(%d events)" % self._length


def build_schedules(routes, mode, z, tr_phase="same"):
    """Per-stream schedules over route positions, slot-aligned across streams."""
    if tr_phase not in TR_PHASES:
        raise ValueError("tr_phase must be one of %r, got %r" % (TR_PHASES, tr_phase))
    schedules = {}
    for stream in sorted(routes):
        route = routes[stream]
        config = ScheduleConfig(nodes=route.num_nodes, z=z, mode=mode)
        if mode == MODE_TR:
            sched = tr_schedule(config, stream=stream)
            if tr_phase == "opposite" and stream == 2:
                rotated = sched.sets[z:] + sched.sets[:z]
                sets = tuple(replace(ts, slot=i + 1) for i, ts in enumerate(rotated))
                sched = Schedule(config=config, stream=stream, sets=sets)
        else:
            sched = nc_schedule(config, stream=stream)
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
    events = []
    for slot in range(1, period + 1):
        transmitters = []
        for stream in sorted(schedules):
            ts = schedules[stream].slot(slot)
            for t in sorted(ts.transmitters, key=lambda x: x.node):
                transmitters.append(t)
        on_air = frozenset((t.stream, t.node) for t in transmitters)
        for t in transmitters:
            nodes = routes[t.stream].num_nodes
            for rx in t.receivers(nodes):
                travel = FORWARD if rx > t.node else REVERSE
                events.append(
                    ReceptionEvent(
                        slot=slot,
                        stream=t.stream,
                        receiver=rx,
                        transmitter=t.node,
                        direction=travel,
                        on_air=on_air,
                    )
                )
    return events


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
    parts = []
    for stream in sorted(routes):
        route = routes[stream]
        ScheduleConfig(nodes=route.num_nodes, z=z, mode=mode)  # validates nodes, z and mode
        slot, tx, rx = _period_events(mode, z, route.num_nodes, tr_phase == "opposite" and stream == 2)
        at = geometry.route_indices(route)  # route position - 1 -> distance_matrix index
        parts.append((slot, np.full(len(tx), stream), tx, rx, at[tx - 1], at[rx - 1]))
    slot, stream_of, tx, rx, tx_at, rx_at = (np.concatenate(a) for a in zip(*parts))
    order = np.lexsort((rx, tx, stream_of, slot))
    slot, stream_of, tx, rx, tx_at, rx_at = (a[order] for a in (slot, stream_of, tx, rx, tx_at, rx_at))
    forward = rx > tx

    dist = geometry.distance_matrix
    on_air = np.zeros((slot.max() + 1, len(dist)), dtype=bool)  # row = slot
    on_air[slot, tx_at] = True
    clash = np.flatnonzero(on_air[slot, rx_at])
    if clash.size:
        e = clash[0]
        raise ValueError(
            "slot %d schedules node %d to receive from node %d while transmitting" % (slot[e], rx[e], tx[e])
        )
    listening = on_air[slot]  # (event, node): node on air in the event's slot
    ref = REFERENCE_DISTANCE_M
    too_close = (dist < ref)[rx_at] & listening
    if too_close.any():
        e, j = np.argwhere(too_close)[0]
        raise ValueError("distance %.3f m below the %.1f m reference" % (dist[rx_at[e], j], ref))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # non-finite SINRs are raised below
        np.fill_diagonal(dist, np.inf)  # no node hears itself: zero power on the diagonal
        power = radio.tx_power_w * path_constant(radio) * (ref / dist) ** radio.path_loss_exponent
        heard = power[rx_at]
        heard *= listening
        heard[np.arange(len(rx_at)), tx_at] = 0.0  # masked, not subtracted: keeps small interference exact
        sinrs = power[rx_at, tx_at] / (heard.sum(axis=1) + noise_power(radio))
    bad = np.flatnonzero(~np.isfinite(sinrs))
    if bad.size:
        e = bad[0]
        raise ValueError(
            "stream %d %s SINR is %r: the radio's powers overflow float64"
            % (stream_of[e], FORWARD if forward[e] else REVERSE, float(sinrs[e]))
        )

    reports = {}
    for stream in sorted(routes):
        mine = stream_of == stream
        # log2 is monotone, so the rate of the lowest SINR is the lowest rate
        worst = [sinrs[mine & (forward == way)] for way in (True, False)]
        if not all(w.size for w in worst):
            raise ValueError("stream %d schedule produced no events in one direction" % stream)
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
            events=ReceptionEventView(stream, radio, slot, stream_of, tx, rx, sinrs),
        )
    return reports

