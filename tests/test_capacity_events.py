"""The closed-form event arrays of ``stream_capacity`` against the schedule
objects they replace, and capacity properties over many (N, Z) pairs.

``stream_capacity`` no longer builds schedules or events; its report's
``events``, a cached property, must still list exactly what
``reception_events`` lists, in the same order, with the SINR and rate the
scalar reference gives. The
properties are compared with the kernel tests' 1e-12 relative tolerance,
because adding or removing interference terms changes the rounding of the
sums they feed.
"""

import tracemalloc
import warnings
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multihop.capacity import ReceptionEvent, event_sinr, reception_events, stream_capacity
from multihop.layout import LayoutConfig, NodeGeometry, build_layout, stream_route
from multihop.radio import RadioConfig, shannon_rate
from multihop.schedule import (
    FORWARD,
    MODE_NC,
    MODE_TR,
    REVERSE,
    nc_schedule,
    period_events,
    tr_schedule,
)
from reference import receivers
from test_capacity_kernel import PROPERTY_SETTINGS, REL, close, radios, scenarios, schedule_objects
from test_schedule import periods

BOTTLENECKS = ("forward_bottleneck_bps", "reverse_bottleneck_bps", "capacity_bps")


@PROPERTY_SETTINGS
@given(scenario=scenarios(), radio=radios)
def test_events_view_matches_the_scalar_reference(scenario, radio):
    geometry, routes, mode, z, tr_phase = scenario
    reports = stream_capacity(geometry, routes, radio, mode, z, tr_phase=tr_phase)
    reference = reception_events(routes, mode, z, tr_phase=tr_phase)
    for stream, rep in reports.items():
        want = [ev for ev in reference if ev.stream == stream]
        got = list(rep.events)
        assert len(rep.events) == len(got) == len(want)
        assert [ev for ev, _, _ in got] == want
        for ev, s, r in got:
            sinr = event_sinr(ev, geometry, routes, radio)
            assert close(s, sinr) and close(r, shannon_rate(radio, sinr)), (ev, s, sinr)
        for way, bottleneck in ((FORWARD, rep.forward_bottleneck_bps), (REVERSE, rep.reverse_bottleneck_bps)):
            assert bottleneck == min(r for ev, _, r in got if ev.direction == way)


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(period=periods())
def test_schedules_are_half_duplex(period):
    """No addressed receiver transmits in its slot, for N <= 64 and Z <= 3N."""
    nodes, z = period
    for sched in (tr_schedule(nodes, z), nc_schedule(nodes, z)):
        for slot, (direction, sending) in enumerate(sched.sets, 1):
            assert not any(r in sending for t in sending for r in receivers(direction, t, nodes)), slot


@PROPERTY_SETTINGS
@given(scenario=scenarios(), radio=radios, factor=st.floats(1.0, 1e3))
def test_capacity_never_falls_as_tx_power_rises(scenario, radio, factor):
    geometry, routes, mode, z, tr_phase = scenario
    louder = replace(radio, tx_power_w=radio.tx_power_w * factor)
    base = stream_capacity(geometry, routes, radio, mode, z, tr_phase=tr_phase)
    more = stream_capacity(geometry, routes, louder, mode, z, tr_phase=tr_phase)
    for stream in base:
        for name in BOTTLENECKS:
            assert getattr(more[stream], name) >= getattr(base[stream], name) * (1 - REL), (stream, name)


@PROPERTY_SETTINGS
@given(scenario=scenarios().filter(lambda s: len(s[1]) == 2), radio=radios)
def test_second_row_never_raises_a_stream_one_bottleneck(scenario, radio):
    geometry, routes, mode, z, tr_phase = scenario
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # rows past the validated size
        one_row = build_layout(replace(geometry.config, num_streams=1))
    alone = {1: stream_route(one_row, 1, routes[1].nodes[0], routes[1].nodes[-1])}
    solo = stream_capacity(one_row, alone, radio, mode, z, tr_phase=tr_phase)[1]
    paired = stream_capacity(geometry, routes, radio, mode, z, tr_phase=tr_phase)[1]
    for name in BOTTLENECKS:
        assert getattr(paired, name) <= getattr(solo, name) * (1 + REL), name


def test_reports_of_equal_calls_compare_and_hash_equal():
    """The cached ``events`` keep the report a value: equal calls give equal
    reports, hashes and events."""
    geometry = build_layout(LayoutConfig(nodes_per_stream=6, num_streams=2))
    routes = {s: stream_route(geometry, s, 1, 6) for s in (1, 2)}
    first, again = (stream_capacity(geometry, routes, RadioConfig(), MODE_NC, 3)[1] for _ in range(2))
    assert first == again and hash(first) == hash(again)
    assert first.events == tuple(again.events)
    assert first.events[0] == next(iter(again.events))


def rows(nodes, streams):
    geometry = NodeGeometry(LayoutConfig(nodes_per_stream=nodes, num_streams=streams))  # no size warning
    return geometry, {s: stream_route(geometry, s, 1, nodes) for s in range(1, streams + 1)}


def test_reports_keep_under_8_kb_per_call():
    """A report keeps its call's SINRs, not its event columns: the columns are
    rebuilt from (mode, Z, route lengths, TR phase) when ``events`` is read."""
    geometry, routes = rows(100, 2)
    radio = RadioConfig()
    stream_capacity(geometry, routes, radio, MODE_TR, 2)  # builds the received-power matrix
    calls = [(mode, z) for mode in (MODE_TR, MODE_NC) for z in range(2, 7)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = [stream_capacity(geometry, routes, radio, mode, z) for mode, z in calls]
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(kept) == 10 and held / len(kept) < 8 * 1024, held / len(kept)


def test_reading_events_does_not_grow_with_z():
    """TR at Z = 10,000 on the default two 5-node rows has 16 events in a
    period of 20,000 slots. The view, with its call, and the scalar
    reference both build them from the closed forms, about 0.1 MB at peak."""
    geometry = build_layout(LayoutConfig())
    routes = {s: stream_route(geometry, s, 1, 5) for s in (1, 2)}
    for read in (
        lambda: [ev for rep in stream_capacity(geometry, routes, RadioConfig(), MODE_TR, 10_000).values() for ev in rep.events],
        lambda: reception_events(routes, MODE_TR, 10_000),
    ):
        tracemalloc.start()
        try:
            events = read()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(events) == 16 and peak < 1_000_000, peak


@pytest.mark.parametrize("mode,streams", [(MODE_NC, 1), (MODE_NC, 2), (MODE_TR, 1)])
def test_tr_phase_that_moves_no_slot_keeps_reports_equal(mode, streams):
    geometry, routes = rows(6, streams)
    same, opposite = (stream_capacity(geometry, routes, RadioConfig(), mode, 3, tr_phase=p) for p in ("same", "opposite"))
    for stream in routes:
        assert same[stream] == opposite[stream] and hash(same[stream]) == hash(opposite[stream])
        assert same[stream].events == opposite[stream].events


def test_opposite_phase_gives_a_different_second_stream_report():
    geometry, routes = rows(6, 2)
    same, opposite = (stream_capacity(geometry, routes, RadioConfig(), MODE_TR, 3, tr_phase=p) for p in ("same", "opposite"))
    assert same[2] != opposite[2]
    assert same[2].events != opposite[2].events


@pytest.mark.parametrize("nodes", [6, 100])
@pytest.mark.parametrize("mode,streams", [(MODE_TR, 1), (MODE_TR, 2), (MODE_NC, 1), (MODE_NC, 2)])
@pytest.mark.parametrize("tr_phase", ["same", "opposite"])
def test_rebuilt_events_match_the_schedule_objects(nodes, mode, streams, tr_phase):
    geometry, routes = rows(nodes, streams)
    reports = stream_capacity(geometry, routes, RadioConfig(), mode, 4, tr_phase=tr_phase)
    schedules = schedule_objects(routes, mode, 4, tr_phase)
    walked = []  # slot by slot, stream by stream, each sender in route order addressing its receivers
    for slot in range(1, schedules[1].period + 1):
        on_air = frozenset((k, t) for k, sched in schedules.items() for t in sched.slot(slot)[1])
        for stream in sorted(schedules):
            direction, sending = schedules[stream].slot(slot)
            walked += [
                ReceptionEvent(slot, stream, r, t, FORWARD if r > t else REVERSE, on_air)
                for t in sorted(sending)
                for r in receivers(direction, t, nodes)
            ]
    for stream, rep in reports.items():
        assert [ev for ev, _, _ in rep.events] == [ev for ev in walked if ev.stream == stream]


@pytest.mark.parametrize("mode", [MODE_TR, MODE_NC])
@pytest.mark.parametrize("tr_phase", ["same", "opposite"])
def test_a_z_past_the_route_leaves_sinrs_bit_identical(mode, tr_phase):
    """From Z = N on, a half-period's senders are on air in its first N slots,
    each alone in its stream, so its slots take the same on-air rows at every
    Z: reports keep every SINR's bytes and differ only in Z and capacity."""
    geometry, routes = rows(100, 2)
    radio = RadioConfig()
    calls = [stream_capacity(geometry, routes, radio, mode, z, tr_phase=tr_phase) for z in (100, 101, 5_000)]
    for stream in routes:
        first, *later = (reports[stream] for reports in calls)
        for rep in later:
            assert rep._events_of_call == first._events_of_call
            assert (rep.forward_bottleneck_bps, rep.reverse_bottleneck_bps) == (
                first.forward_bottleneck_bps,
                first.reverse_bottleneck_bps,
            )


@pytest.mark.parametrize("z", [75, 150, 10**6])
def test_close_rows_fail_at_the_first_offender(z):
    """Rows 0.5 m apart, TR, opposite phase: in the order the kernel makes
    events, event 74 of 596 is the first whose receiver hears the other row's
    opposite node on air, and the error is the scalar path's first one in
    ``reception_events`` order. That holds with Z inside the 150-node route, at
    its length and far past it, where the slots fold onto other on-air places."""
    nodes = 150
    geometry = NodeGeometry(LayoutConfig(nodes_per_stream=nodes, num_streams=2, row_separation_m=0.5))
    routes = {s: stream_route(geometry, s, 1, nodes) for s in (1, 2)}
    radio = RadioConfig()
    failing = {}  # (slot, stream, transmitter, receiver) -> the scalar path's error, in reception_events order
    for ev in reception_events(routes, MODE_TR, z, tr_phase="opposite"):
        try:
            event_sinr(ev, geometry, routes, radio)
        except ValueError as exc:
            failing[(ev.slot, ev.stream, ev.transmitter, ev.receiver)] = str(exc)
    made = [  # the kernel's order: stream 1's events, then stream 2's in the opposite phase
        (s, stream, t, r)
        for stream, opposite in ((1, False), (2, True))
        for s, t, r in zip(*(c.tolist() for c in period_events(MODE_TR, z, nodes, opposite)))
    ]
    assert next(i for i, row in enumerate(made) if row in failing) == 74
    message = next(iter(failing.values()))  # the first offender in reception_events order
    assert message == "distance 0.500 m below the 1.0 m reference"
    with pytest.raises(ValueError) as exc:
        stream_capacity(geometry, routes, radio, MODE_TR, z, tr_phase="opposite")
    assert str(exc.value) == message
