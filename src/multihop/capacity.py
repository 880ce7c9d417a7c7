"""SINR and Shannon-rate evaluation of scheduled streams, per reception event.

Every transmission a schedule produces is heard somewhere; each addressed
(receiver, transmitter) pair in a slot is one reception event, and every other
node transmitting in that slot, in either stream, interferes with it. A
direction's bottleneck is the lowest rate over its events, and capacity per
timeslot divides the two bottlenecks' sum by ``schedule.period``: Z when coded
relaying moves both directions per cycle, 2Z when the cycle serves each
direction in its own half.

This is the physical interference model of Gupta and Kumar (The Capacity of
Wireless Networks, IEEE Trans. IT 2000), with received powers
Pt * K * (d_ref / D)^eta. A route is a run of one row, so every event's signal
comes from a row neighbour of its receiver: each node's powers from its row
neighbours are kept apart from the far-field matrix P, which holds every other
pair's. P, built in place in a copy of the layout's distance matrix, the
row-neighbour powers and the pairs closer than the reference distance depend
only on the layout and the radio, so they are built once per geometry object
and equal radio and reused read-only.

``stream_capacity`` takes a period's events from the schedules' closed forms as
numpy index arrays, stream by stream in the order they are made: each stream's
forward events, then its reverse ones. Every hop carries one event per direction per
period in both modes, and a link's ``period_phases``, its half of the period and
place in that half's progression, give its slot for any Z. So a call's links,
``period_links`` on layout indices with each receiver's other row neighbour and both
row-neighbour powers, and their phases in every mode and TR phase, are built once
per layout, routes and radio and reused read-only too; a call computes each link's
place and what depends on it. A half-period's senders are on air only in its first
min(Z, N) slots, so each link takes a place among at most 2 x min(Z, N) rows of a
(place x node) on-air matrix, whatever Z is. One product of P with those rows gives
every event's far-field interference; the other row neighbour's power is added when
it is on air, and the signal never enters the sum, so no signal is subtracted and
small interference stays exact. Non-finite far-field powers are set apart and added
only when on the air, so an off-air inf adds nothing (inf x 0 is nan). Each
direction's bottleneck is the Shannon rate of the lowest SINR of its run of events.
A report keeps its call's radio, SINRs and (stream, nodes, TR phase) per stream; its
cached ``events`` rebuilds the event rows from those closed forms and sorts them,
with their SINRs, into ``reception_events`` order, as each error message picks its
first offending event in that order.

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
from multihop.schedule import FORWARD, MODE_NC, MODE_TR, REVERSE, TR_PHASES, ScheduleConfig, period, period_events
from multihop.schedule import period_links, period_phases
from multihop.schedule import nc_schedule, tr_schedule  # unused here: perfbench/tracer.py wraps both at this module


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
        ScheduleConfig(nodes=len(route.nodes), z=z, mode=mode)  # validates nodes, z and mode
        streams.append((stream, len(route.nodes), _opposite(mode, tr_phase, stream)))
    return streams


def _opposite(mode, tr_phase, stream):
    """Whether a stream runs in the opposite phase: TR's stream 2 when ``tr_phase`` is opposite."""
    return mode == MODE_TR and tr_phase == "opposite" and stream == 2


def _ordered(mode, z, streams):
    """A call's events in ``reception_events`` order, from (stream, nodes,
    opposite) per stream: each one's index in the order ``stream_capacity``
    makes them, and its (slot, stream, transmitter, receiver) route positions."""
    parts = []
    for stream, nodes, opposite in streams:
        slot, tx, rx = period_events(mode, z, nodes, opposite)
        parts.append((slot, np.full(len(tx), stream), tx, rx))
    rows = np.stack([np.concatenate(a) for a in zip(*parts)], axis=1)
    order = np.array(sorted(range(len(rows)), key=rows.tolist().__getitem__))  # np.lexsort takes 14 KB at once
    return order, rows[order]


def reception_events(routes, mode, z, tr_phase="same"):
    """All reception events over one schedule period, with what is on air,
    in (slot, stream, transmitter, receiver) order.

    The scalar reference for the index arrays ``stream_capacity`` builds.
    """
    return _events_from_rows(_ordered(mode, z, _streams(routes, mode, z, tr_phase))[1].tolist())


def _layout_pair(routes, stream, position):
    route = routes[stream]
    return (route.stream, route.nodes[position - 1])


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


def _too_close(geometry, ordered, tx_at, rx_at, place, on_air, close):
    """The scalar path's error: the first event in ``reception_events`` order
    that hears a node on air closer than the reference, at its own link if that
    is too close, else at its first such interferer in (stream, route position) order."""
    order, rows = ordered
    slot = rows[:, 0]
    i = next(i for i, e in enumerate(order) if (close[rx_at[e]] & on_air[place[e]]).any())  # a row at a time
    e = order[i]
    j = next(j for j in [e, *order[slot == slot[i]]] if close[rx_at[e], tx_at[j]])  # the slot's transmitters
    distance = geometry.distance_matrix[rx_at[e], tx_at[j]]
    return ValueError("distance %.3f m below the %.1f m reference" % (distance, REFERENCE_DISTANCE_M))


@lru_cache(maxsize=1)
def _received_power(geometry, radio):
    """Read-only far-field powers P[i, j], power node j delivers to node i; each
    node's powers from its row neighbours below and above, ``near[0 or 1, i]``;
    the off-diagonal pairs closer than the reference; and the non-finite far-field
    powers, zero elsewhere. The last two are None when there are none.

    P is built in place in the layout's distance-matrix copy, one operation of
    Pt * K * (d_ref / D)^eta at a time; its diagonal, row-neighbour and non-finite
    entries are then zeroed, so a product with an on-air matrix adds only finite
    powers. Keyed on the geometry object and the radio's values: a sweep or a scan
    evaluates one layout and one radio at a time.
    """
    power = geometry.distance_matrix  # a copy, turned into P in place
    np.fill_diagonal(power, np.inf)  # no node hears itself: zero power on the diagonal
    close = power < REFERENCE_DISTANCE_M
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # non-finite SINRs are raised by the caller
        np.divide(REFERENCE_DISTANCE_M, power, out=power)
        power **= radio.path_loss_exponent
        power *= radio.tx_power_w * path_constant(radio)
    above = np.arange(1, len(power))
    above = above[above % geometry.config.nodes_per_stream != 0]  # each node with a row neighbour below it
    near = np.zeros((2, len(power)))
    near[0, above], near[1, above - 1] = power[above, above - 1], power[above - 1, above]
    power[above, above - 1] = power[above - 1, above] = 0.0
    finite = np.isfinite(power)
    odd = None if finite.all() else np.where(finite, 0.0, power)
    power[~finite] = 0.0
    for array in power, near, close, odd:
        if array is not None:
            array.setflags(write=False)  # writes to ``array.flags`` hold memory gc does not free
    return power, near, close if close.any() else None, odd


@lru_cache(maxsize=1)
def _links(geometry, routes, radio):
    """Read-only tx, rx and other-row-neighbour indices of the links of ``routes``, sorted (stream, route) pairs,
    their signal and other-neighbour powers, halves per TR phase, places under TR and NC, and each run's start."""
    near = _received_power(geometry, radio)[1]
    parts, starts, phases = [], [0], ([], [], [], [])  # lists, not generators or np.cumsum: both moved peaks
    for k, route in routes:
        nodes = len(route.nodes)
        tx, rx = period_links(nodes)
        at = geometry.route_indices(route)  # route position - 1 -> matrix index
        parts.append((at[np.subtract(tx, 1)], at[np.subtract(rx, 1)]))
        (same, tr_pos), (opposite, _) = (period_phases(MODE_TR, nodes, _opposite(MODE_TR, p, k)) for p in TR_PHASES)
        for column, values in zip(phases, (same, opposite, tr_pos, period_phases(MODE_NC, nodes)[1])):
            column += values
        starts += [starts[-1] + len(tx) // 2, starts[-1] + len(tx)]  # its reverse run, the next stream
    tx_at, rx_at = (np.concatenate(a) for a in zip(*parts))
    halves, places = np.array(phases[:2]), np.array(phases[2:], np.int32)  # per TR phase; under TR, then NC
    up = np.greater(tx_at, rx_at).astype(int)  # 1 where the signal comes from the row neighbour above
    other = (2 * rx_at - tx_at) % near.shape[1]  # the other row neighbour; where it has none, near is 0
    links = tx_at, rx_at, other, near[up, rx_at], near[1 - up, rx_at], halves, places
    for array in links:
        array.setflags(write=False)
    return (*links, tuple(starts))


def stream_capacity(geometry, routes, radio, mode, z, tr_phase="same"):
    """Capacity report per stream; interference crosses streams either way.

    Events come from the schedules' closed forms as index arrays, stream by
    stream in the order ``period_links`` lists them: each stream's forward
    events, then its reverse ones, so each direction's bottleneck is the
    minimum of one contiguous run. Only the ``events`` view and the error
    messages sort them into ``reception_events`` order; no schedule or event
    object is built unless ``events`` is read.
    """
    streams = _streams(routes, mode, z, tr_phase)
    power, _, close, odd = _received_power(geometry, radio)
    tx_at, rx_at, other, signal, beside, halves, places, starts = _links(geometry, tuple(sorted(routes.items())), radio)
    half, pos = (halves[TR_PHASES.index(tr_phase)], places[0]) if mode == MODE_TR else (0, places[1])  # NC: one half
    # a half-period's senders are on air in its first ``width`` slots only, so its slots take ``width`` places:
    # at most 2 x min(Z, N) rows, whatever Z is. A link's place is below N, so it is the same modulo Z and width
    width = min(z, max(nodes for _, nodes, _ in streams))
    place = half * width + pos % width
    on_air = np.zeros((period(mode, z) // z * width, len(power)), dtype=bool)
    on_air[place, tx_at] = True
    clash = on_air[place, rx_at]
    if clash.any():
        _, (s, _, t, r) = _first(clash, _ordered(mode, z, streams))
        raise ValueError("slot %d schedules node %d to receive from node %d while transmitting" % (s, r, t))
    if close is not None and (close[rx_at] & on_air[place]).any():
        raise _too_close(geometry, _ordered(mode, z, streams), tx_at, rx_at, place, on_air, close)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # non-finite SINRs are raised below
        heard = (power @ on_air.T.astype(float))[rx_at, place]  # cast: a bool operand skips BLAS, 80x slower
        heard += np.where(on_air[place, other], beside, 0.0)  # chosen, not multiplied: inf x 0 is nan
        if odd is not None:
            heard += np.where(on_air[place], odd[rx_at], 0.0).sum(axis=1)
        sinrs = signal / (heard + noise_power(radio))
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
