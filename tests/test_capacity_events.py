"""The closed-form event arrays of ``stream_capacity`` against the schedule
objects they replace, and capacity properties over many (N, Z) pairs.

``stream_capacity`` no longer builds schedules or events; its report's
``events`` view must still list exactly what ``reception_events`` lists, in
the same order, with the SINR and rate the scalar reference gives. The
properties are compared with the kernel tests' 1e-12 relative tolerance,
because adding or removing interference terms changes the rounding of the
sums they feed.
"""

import warnings
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from multihop.capacity import build_schedules, event_sinr, reception_events, stream_capacity
from multihop.layout import LayoutConfig, build_layout, stream_route
from multihop.radio import RadioConfig, shannon_rate
from multihop.schedule import FORWARD, MODE_NC, MODE_TR, REVERSE, ScheduleConfig, nc_schedule, tr_schedule
from test_capacity_kernel import PROPERTY_SETTINGS, REL, close, radios, scenarios

BOTTLENECKS = ("forward_bottleneck_bps", "reverse_bottleneck_bps", "capacity_bps")


@PROPERTY_SETTINGS
@given(scenario=scenarios(), radio=radios)
def test_events_view_matches_the_scalar_reference(scenario, radio):
    geometry, routes, mode, z, tr_phase = scenario
    reports = stream_capacity(geometry, routes, radio, mode, z, tr_phase=tr_phase)
    reference = reception_events(build_schedules(routes, mode, z, tr_phase=tr_phase), routes)
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


@st.composite
def periods(draw):
    nodes = draw(st.integers(3, 64))
    return nodes, draw(st.integers(2, nodes))


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(period=periods())
def test_schedules_are_half_duplex(period):
    """No addressed receiver transmits in its slot, for N <= 64 and Z <= N."""
    nodes, z = period
    for sched in (
        tr_schedule(ScheduleConfig(nodes=nodes, z=z, mode=MODE_TR)),
        nc_schedule(ScheduleConfig(nodes=nodes, z=z, mode=MODE_NC)),
    ):
        for ts in sched.sets:
            sending = ts.nodes()
            assert not any(r in sending for t in ts.transmitters for r in t.receivers(nodes)), ts.slot


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
    alone = {1: stream_route(one_row, 1, routes[1].source, routes[1].destination)}
    solo = stream_capacity(one_row, alone, radio, mode, z, tr_phase=tr_phase)[1]
    paired = stream_capacity(geometry, routes, radio, mode, z, tr_phase=tr_phase)[1]
    for name in BOTTLENECKS:
        assert getattr(paired, name) <= getattr(solo, name) * (1 + REL), name


def test_reports_of_equal_calls_compare_and_hash_equal():
    """The events view keeps the report a value, as the tuple it replaced did."""
    geometry = build_layout(LayoutConfig(nodes_per_stream=6, num_streams=2))
    routes = {s: stream_route(geometry, s, 1, 6) for s in (1, 2)}
    first, again = (stream_capacity(geometry, routes, RadioConfig(), MODE_NC, 3)[1] for _ in range(2))
    assert first == again and hash(first) == hash(again)
    assert first.events == tuple(again.events)
    assert first.events[0] == next(iter(again.events))
    assert repr(first.events) == "ReceptionEventView(%d events)" % len(again.events)
