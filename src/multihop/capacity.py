"""SINR and Shannon-rate evaluation of scheduled streams, per reception event.

Every transmission a schedule produces is heard somewhere; each addressed
(receiver, transmitter) pair in a slot is one reception event, and every other
node transmitting in that slot, in either stream, interferes with it. A
direction's bottleneck is the lowest rate over its events, and capacity per
timeslot divides the two bottlenecks by the schedule period: once by Z when
coded relaying moves both directions per cycle, once by 2Z when the cycle
serves each direction in its own half.

``stream_capacity`` evaluates all events of a period in one pass over a
received-power matrix P = Pt * K * (d_ref / D)^eta built from the layout's
distance matrix D: an event's signal is P[rx, tx], and its interference is
the sum of P[rx] over the nodes on air in its slot, its own transmitter
masked out. This is the physical interference model of Gupta and Kumar (The
Capacity of Wireless Networks, IEEE Trans. IT 2000). ``event_sinr`` and
``event_interference`` compute the same quantities for one event with scalar
link-budget calls; they are the reference the matrix pass is tested against.
"""

from dataclasses import dataclass, replace

import numpy as np

from multihop.radio import REFERENCE_DISTANCE_M, noise_power, path_constant, received_power, shannon_rate, sinr
from multihop.schedule import (
    FORWARD,
    MODE_NC,
    MODE_TR,
    REVERSE,
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
    events: tuple  # (ReceptionEvent, sinr, rate_bps)


def build_schedules(routes, mode, z, tr_phase="same"):
    """Per-stream schedules over route positions, slot-aligned across streams."""
    if tr_phase not in ("same", "opposite"):
        raise ValueError("tr_phase must be 'same' or 'opposite'")
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
    """All reception events over one schedule period, with what is on air."""
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


def _event_sinrs(events, geometry, routes, radio):
    """SINR of every event, as ``event_sinr`` defines it, from one power matrix."""
    flat = {pair: i for i, pair in enumerate(geometry.nodes())}
    index = {
        (stream, position): flat[_layout_pair(routes, stream, position)]
        for stream, route in routes.items()
        for position in range(1, route.num_nodes + 1)
    }
    slots = {ev.slot: ev.on_air for ev in events}
    on_air = np.zeros((max(slots, default=0) + 1, len(flat)), dtype=bool)  # row = slot
    for slot, pairs in slots.items():
        on_air[slot, [index[p] for p in pairs]] = True
    rx = np.array([index[(ev.stream, ev.receiver)] for ev in events], dtype=np.intp)
    tx = np.array([index[(ev.stream, ev.transmitter)] for ev in events], dtype=np.intp)
    listening = on_air[[ev.slot for ev in events]]  # (event, node): node on air in the event's slot

    dist = geometry.distance_matrix
    ref = REFERENCE_DISTANCE_M
    too_close = (dist < ref)[rx] & listening
    if too_close.any():
        e, j = np.argwhere(too_close)[0]
        raise ValueError("distance %.3f m below the %.1f m reference" % (dist[rx[e], j], ref))
    np.fill_diagonal(dist, np.inf)  # no node hears itself: zero power on the diagonal
    power = radio.tx_power_w * path_constant(radio) * (ref / dist) ** radio.path_loss_exponent

    heard = power[rx]
    heard *= listening
    heard[np.arange(len(rx)), tx] = 0.0  # masked, not subtracted: keeps small interference exact
    signal = power[rx, tx]
    return (signal / (heard.sum(axis=1) + noise_power(radio))).tolist()


def capacity_per_slot(mode, z, forward_bps, reverse_bps):
    """Fold the two directional bottlenecks into capacity per timeslot."""
    if mode == MODE_NC:
        return (forward_bps + reverse_bps) / z
    if mode == MODE_TR:
        return (forward_bps + reverse_bps) / (2 * z)
    raise ValueError("unknown mode %r" % (mode,))


def stream_capacity(geometry, routes, radio, mode, z, tr_phase="same"):
    """Capacity report per stream; interference crosses streams either way."""
    schedules = build_schedules(routes, mode, z, tr_phase=tr_phase)
    events = reception_events(schedules, routes)
    sinrs = _event_sinrs(events, geometry, routes, radio)
    rated = [(ev, s, shannon_rate(radio, s)) for ev, s in zip(events, sinrs)]
    reports = {}
    for stream in sorted(routes):
        mine = [(ev, s, r) for ev, s, r in rated if ev.stream == stream]
        fwd = [r for ev, s, r in mine if ev.direction == FORWARD]
        rev = [r for ev, s, r in mine if ev.direction == REVERSE]
        if not fwd or not rev:
            raise ValueError("stream %d schedule produced no events in one direction" % stream)
        f, r = min(fwd), min(rev)
        reports[stream] = StreamCapacityReport(
            stream=stream,
            mode=mode,
            z=z,
            forward_bottleneck_bps=f,
            reverse_bottleneck_bps=r,
            capacity_bps=capacity_per_slot(mode, z, f, r),
            events=tuple(mine),
        )
    return reports

