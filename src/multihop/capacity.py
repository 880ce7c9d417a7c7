"""SINR and Shannon-rate evaluation of scheduled streams, per reception event.

Every transmission a schedule produces is heard somewhere; each addressed
(receiver, transmitter) pair in a slot is one reception event, and every other
node transmitting in that slot, in either stream, interferes with it. A
direction's bottleneck is the lowest rate over its events, and capacity per
timeslot divides the two bottlenecks' sum by ``schedule.period``: Z when coded
relaying moves both directions per cycle, 2Z when the cycle serves each
direction in its own half.

``stream_capacity`` takes a period's events straight from the schedules' closed
forms, ``period_events``, as numpy index arrays of slot, transmitter and
receiver, stream by stream in the order they are made: each stream's forward
events, then its reverse ones, with route positions mapped onto layout indices.
One (slot x node) on-air matrix, inverted in place after the clash check, and a
received-power matrix P = Pt * K * (d_ref / D)^eta give every event's SINR: an
event's signal is P[rx, tx], and its interference is the sum of P[rx] over the
nodes on air in its slot, the off-air nodes' powers zeroed rather than
multiplied by a mask and its own transmitter masked out. This is the physical
interference model of Gupta and Kumar (The Capacity of Wireless Networks, IEEE
Trans. IT 2000). The interference sums are taken over blocks of events, each a
gather of about 128 KB of P's rows, so a call's memory does not grow with
events x nodes; each event's row and its sum are the same in any block and any
order. P is built in place in a copy of the layout's distance matrix D. It
depends only on the layout and the radio, so it is built once per layout and
radio, together with the node pairs closer than the reference distance, and
reused read-only by every later call with that geometry object and an equal
radio. Each direction's bottleneck is the Shannon rate of the lowest SINR of
its run of events. A report keeps its call's radio, SINRs and (stream, nodes,
TR phase) per stream; its cached ``events`` rebuilds the event rows from those
closed forms and sorts them, with their SINRs, into ``reception_events`` order,
as each error message picks its first offending event in that order.

The scalar reference the array path is tested against is ``reception_events``,
which reads the same sorted rows as the ``events`` view, and ``event_sinr``'s
link-budget calls on each event. Both rest on ``period_events``; the
independent slot rules, as set forms, are in ``tests/reference.py``.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from multihop.radio import REFERENCE_DISTANCE_M, noise_power, path_constant, received_power, shannon_rate, sinr
from multihop.schedule import (
    FORWARD,
    MODE_TR,
    REVERSE,
    TR_PHASES,
    ScheduleConfig,
    nc_schedule,  # with tr_schedule, unused here: perfbench/tracer.py wraps both at this module
    period,
    period_events,
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
    # the order they are made, as bytes: they compare and hash as values
    _events_of_call: tuple = field(repr=False)

    @cached_property
    def events(self):
        """(ReceptionEvent, sinr, rate_bps) triples in ``reception_events`` order,
        built on first read by sorting the call's events and their SINRs."""
        radio, streams, sinrs = self._events_of_call
        order, rows = _ordered(self.mode, self.z, streams)
        return tuple([
            (ev, v, shannon_rate(radio, v))
            for ev, v in zip(_events_from_rows(rows.tolist()), np.frombuffer(sinrs)[order].tolist())
            if ev.stream == self.stream
        ])


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


def _streams(routes, mode, z, tr_phase):
    """(stream, nodes, opposite) per stream in stream order, each route's
    schedule validated; opposite marks TR's stream 2 in the opposite phase."""
    if tr_phase not in TR_PHASES:
        raise ValueError("tr_phase must be one of %r, got %r" % (TR_PHASES, tr_phase))
    if not routes:
        raise ValueError("no routes to schedule")
    streams = []
    for stream, route in sorted(routes.items()):
        ScheduleConfig(nodes=route.num_nodes, z=z, mode=mode)  # validates nodes, z and mode
        streams.append((stream, route.num_nodes, mode == MODE_TR and tr_phase == "opposite" and stream == 2))
    return streams


def _ordered(mode, z, streams):
    """A call's events in ``reception_events`` order, from (stream, nodes,
    opposite) per stream: each one's index in the order ``stream_capacity``
    makes them, and its (slot, stream, transmitter, receiver) route positions."""
    parts = []
    for stream, nodes, opposite in streams:
        slot, tx, rx = period_events(mode, z, nodes, opposite)
        parts.append((slot, np.full(len(tx), stream), tx, rx))
    rows = np.stack([np.concatenate(a) for a in zip(*parts)], axis=1)
    order = np.lexsort(rows.T[::-1])
    return order, rows[order]


def reception_events(routes, mode, z, tr_phase="same"):
    """All reception events over one schedule period, with what is on air,
    in (slot, stream, transmitter, receiver) order.

    The scalar reference for the index arrays ``stream_capacity`` builds.
    """
    return _events_from_rows(_ordered(mode, z, _streams(routes, mode, z, tr_phase))[1].tolist())


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
    """Fold the two directional bottlenecks into capacity per timeslot: both over the mode's period."""
    return (forward_bps + reverse_bps) / period(mode, z)


def _first(bad, ordered):
    """The index and row of the first event in ``reception_events`` order that
    ``bad``, a mask over the events in the order they are made, marks."""
    order, rows = ordered
    i = np.flatnonzero(bad[order])[0]
    return order[i], rows[i]


def _too_close(geometry, ordered, tx_at, rx_at, on_air, close):
    """The scalar path's error: the first event in ``reception_events`` order
    that hears a node on air closer than the reference, at its own link if that
    is too close, else at its first such interferer in (stream, route position) order."""
    order, rows = ordered
    slot = rows[:, 0]
    i = next(i for i, e in enumerate(order) if (close[rx_at[e]] & on_air[slot[i]]).any())  # a row at a time
    e = order[i]
    j = next(j for j in [e, *order[slot == slot[i]]] if close[rx_at[e], tx_at[j]])  # the slot's transmitters
    distance = geometry.distance_matrix[rx_at[e], tx_at[j]]
    return ValueError("distance %.3f m below the %.1f m reference" % (distance, REFERENCE_DISTANCE_M))


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

    Events come from the schedules' closed forms as index arrays, stream by
    stream in the order ``period_events`` makes them: each stream's forward
    events, then its reverse ones, so each direction's bottleneck is the
    minimum of one contiguous run. Only the ``events`` view and the error
    messages sort them into ``reception_events`` order; no schedule or event
    object is built unless ``events`` is read.
    """
    streams = _streams(routes, mode, z, tr_phase)
    made, parts, starts = {}, [], [0]  # lists, not generators or np.cumsum: both moved tracemalloc peaks
    for stream, nodes, opposite in streams:
        key = (nodes, opposite)
        if key not in made:  # streams of one length and phase share their events
            made[key] = period_events(mode, z, *key)
        slot, tx, rx = made[key]
        at = geometry.route_indices(routes[stream])  # route position - 1 -> matrix index
        parts.append((slot, at[tx - 1], at[rx - 1]))
        starts += [starts[-1] + len(tx) // 2, starts[-1] + len(tx)]  # its reverse run, the next stream
    slot, tx_at, rx_at = (np.concatenate(a) for a in zip(*parts))
    del parts, made, tx, rx  # the per-stream arrays, before the power rows are gathered

    power, close = _received_power(geometry, radio)
    shape = (int(slot.max()) + 1, len(power))  # row = slot, so TR's on-air matrix grows with Z
    if shape[0] * shape[1] > 2**28:  # bools: 256 MiB
        raise ValueError("on-air matrix too large: %d slots x %d nodes at z=%d, over the 2**28-entry limit"
                         % (*shape, z))
    on_air = np.zeros(shape, dtype=bool)
    on_air[slot, tx_at] = True
    clash = on_air[slot, rx_at]
    if clash.any():
        _, (s, _, t, r) = _first(clash, _ordered(mode, z, streams))
        raise ValueError("slot %d schedules node %d to receive from node %d while transmitting" % (s, r, t))
    off_air = np.logical_not(on_air, out=on_air)  # in place: no second (slot x node) matrix
    heard = np.empty(len(rx_at))  # interference per event, summed one block of events at a time
    step = max(1, _BLOCK_ENTRIES // len(power))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # non-finite SINRs are raised below
        for s in (slice(i, i + step) for i in range(0, len(rx_at), step)):
            deaf = off_air[slot[s]]  # (event, node): node off air in the event's slot
            if close is not None and (close[rx_at[s]] > deaf).any():
                raise _too_close(geometry, _ordered(mode, z, streams), tx_at, rx_at, ~off_air, close)
            block = power[rx_at[s]]
            np.putmask(block, deaf, 0.0)  # zeroed, not multiplied by a mask: an off-air inf adds nothing
            block[np.arange(len(block)), tx_at[s]] = 0.0  # masked, not subtracted: keeps small interference exact
            heard[s] = block.sum(axis=1)
            del block  # before the next block is gathered
        sinrs = power[rx_at, tx_at] / (heard + noise_power(radio))
    finite = np.isfinite(sinrs)
    if not finite.all():
        e, (_, k, t, r) = _first(~finite, _ordered(mode, z, streams))
        raise ValueError(
            "stream %d %s SINR is %r: the radio's powers overflow float64"
            % (k, FORWARD if r > t else REVERSE, float(sinrs[e]))
        )

    events_of_call = (radio, tuple(streams), sinrs.tobytes())
    worst = np.minimum.reduceat(sinrs, starts[:-1]).tolist()  # forward and reverse per stream
    reports = {}
    for (stream, _, _), lowest in zip(streams, zip(worst[::2], worst[1::2])):
        # log2 is monotone, so the rate of the lowest SINR is the lowest rate
        f, r = (shannon_rate(radio, w) for w in lowest)
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
