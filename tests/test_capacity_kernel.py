"""Property tests: the power-matrix pass in ``stream_capacity`` against the
scalar per-event reference ``event_sinr``.

The matrix pass sums interference in another order than the scalar loop, so
results are compared with a relative tolerance of 1e-12, far above the
rounding of a float64 sum of a few dozen positive terms.
"""

import math
import warnings
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from multihop import capacity
from multihop.capacity import event_sinr, reception_events, stream_capacity
from multihop.layout import LayoutConfig, NodeGeometry, build_layout, stream_route
from multihop.radio import RadioConfig, shannon_rate
from multihop.schedule import MODE_NC, MODE_TR, nc_schedule, tr_schedule

REL = 1e-12
PROPERTY_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

radios = st.builds(
    RadioConfig,
    tx_power_w=st.floats(0.001, 10.0),
    tx_gain=st.floats(0.5, 4.0),
    rx_gain=st.floats(0.5, 4.0),
    frequency_hz=st.floats(1e8, 6e9),
    path_loss_exponent=st.floats(2.0, 6.0),
    noise_figure_db=st.floats(0.0, 10.0),
    temperature_k=st.floats(100.0, 400.0),
    bandwidth_hz=st.floats(1e5, 1e8),
)


@st.composite
def scenarios(draw, hop_length_m=100.0, row_separation_m=300.0, max_nodes=40, max_z=40):
    """(geometry, routes, mode, z, tr_phase) over 1-2 rows of 3..max_nodes nodes,
    Z from 2 up to max_z or the row's length.

    Each row's route is a random run of at least three nodes, in either
    direction, so route lengths differ and routes may run backwards.
    """
    nodes = draw(st.integers(3, max_nodes))
    streams = draw(st.integers(1, 2))
    layout = LayoutConfig(
        nodes_per_stream=nodes,
        num_streams=streams,
        hop_length_m=hop_length_m,
        row_separation_m=row_separation_m,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # rows past the validated size
        geometry = build_layout(layout)
    routes = {}
    for stream in range(1, streams + 1):
        length = draw(st.integers(3, nodes))
        low = draw(st.integers(1, nodes - length + 1))
        high = low + length - 1
        source, destination = (high, low) if draw(st.booleans()) else (low, high)
        routes[stream] = stream_route(geometry, stream, source, destination)
    mode = draw(st.sampled_from([MODE_TR, MODE_NC]))
    z = draw(st.integers(2, min(nodes, max_z)))
    tr_phase = draw(st.sampled_from(["same", "opposite"]))
    return geometry, routes, mode, z, tr_phase


def close(got, want):
    return math.isclose(got, want, rel_tol=REL, abs_tol=0.0)


def schedule_objects(routes, mode, z, tr_phase):
    """The packet engine's schedule of each stream over its route positions,
    stream 2's rotated by Z in TR's opposite phase."""
    schedules = {}
    for stream, route in routes.items():
        sched = (tr_schedule if mode == MODE_TR else nc_schedule)(route.num_nodes, z)
        if mode == MODE_TR and tr_phase == "opposite" and stream == 2:
            sched = replace(sched, sets=sched.sets[z:] + sched.sets[:z])
        schedules[stream] = sched
    return schedules


def event_blocks(events, geometry):
    """Make ``stream_capacity`` sum interference ``events`` events at a time
    on ``geometry``'s nodes."""
    return mock.patch.object(capacity, "_BLOCK_ENTRIES", events * len(geometry.nodes()))


@PROPERTY_SETTINGS
@given(scenario=scenarios(), radio=radios)
def test_matrix_pass_matches_the_scalar_reference(scenario, radio):
    check_matrix_pass(scenario, radio)


@PROPERTY_SETTINGS
@given(scenario=scenarios(), radio=radios)
def test_matrix_pass_matches_the_scalar_reference_in_3_event_blocks(scenario, radio):
    with event_blocks(3, scenario[0]):  # every scenario has at least four events
        check_matrix_pass(scenario, radio)


def check_matrix_pass(scenario, radio):
    geometry, routes, mode, z, tr_phase = scenario
    reports = stream_capacity(geometry, routes, radio, mode, z, tr_phase=tr_phase)
    schedules = schedule_objects(routes, mode, z, tr_phase)
    assert sorted(reports) == sorted(routes)
    for rep in reports.values():
        assert rep.events
        for ev, s, r in rep.events:
            want = event_sinr(ev, geometry, routes, radio)
            assert close(s, want), (ev, s, want)
            assert close(r, shannon_rate(radio, want))
            assert 0.0 <= s < math.inf and 0.0 <= r < math.inf
            on_air = {(stream, n) for stream, sched in schedules.items() for n in sched.slot(ev.slot)[1]}
            assert ev.on_air == on_air
            assert ev.interferers == on_air - {(ev.stream, ev.transmitter)}


@PROPERTY_SETTINGS
@given(scenario=scenarios(hop_length_m=0.5), radio=radios)
def test_sub_reference_hops_still_rejected(scenario, radio):
    geometry, routes, mode, z, tr_phase = scenario
    with pytest.raises(ValueError, match="reference"):
        stream_capacity(geometry, routes, radio, mode, z, tr_phase=tr_phase)


@PROPERTY_SETTINGS
@given(scenario=scenarios(row_separation_m=0.5), radio=radios)
def test_close_rows_rejected_exactly_when_the_scalar_path_rejects(scenario, radio):
    check_close_rows(scenario, radio)


@PROPERTY_SETTINGS
@given(scenario=scenarios(row_separation_m=0.5), radio=radios)
def test_close_rows_rejected_exactly_when_the_scalar_path_rejects_in_3_event_blocks(scenario, radio):
    with event_blocks(3, scenario[0]):  # every scenario has at least four events
        check_close_rows(scenario, radio)


def check_close_rows(scenario, radio):
    """Rows 0.5 m apart fail only where a receiver hears the other row's
    opposite node on air; the matrix pass must fail on the same scenarios."""
    geometry, routes, mode, z, tr_phase = scenario
    events = reception_events(routes, mode, z, tr_phase=tr_phase)
    try:
        for ev in events:
            event_sinr(ev, geometry, routes, radio)
    except ValueError:
        with pytest.raises(ValueError, match="reference"):
            stream_capacity(geometry, routes, radio, mode, z, tr_phase=tr_phase)
    else:
        stream_capacity(geometry, routes, radio, mode, z, tr_phase=tr_phase)


near_reference = st.tuples(st.sampled_from([0.3, 0.45, 0.8, 1.5]), st.sampled_from([0.5, 0.9, 2.0])).flatmap(
    lambda spacing: scenarios(hop_length_m=spacing[0], row_separation_m=spacing[1], max_nodes=9, max_z=4)
)


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(scenario=near_reference, radio=radios)
def test_reference_error_names_the_scalar_paths_pair(scenario, radio):
    check_reference_message(scenario, radio)


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(scenario=near_reference, radio=radios)
def test_reference_error_names_the_scalar_paths_pair_in_3_event_blocks(scenario, radio):
    with event_blocks(3, scenario[0]):  # every scenario has at least four events
        check_reference_message(scenario, radio)


def check_reference_message(scenario, radio):
    """Hops and rows near the 1 m reference: the matrix pass fails exactly
    when the scalar path does, naming the same distance. The scalar path
    meets the first event in ``reception_events`` order that hears a node too
    close, and checks its own link before its interferers in (stream, route
    position) order."""
    geometry, routes, mode, z, tr_phase = scenario
    events = reception_events(routes, mode, z, tr_phase=tr_phase)
    try:
        for ev in events:
            event_sinr(ev, geometry, routes, radio)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            stream_capacity(geometry, routes, radio, mode, z, tr_phase=tr_phase)
        assert str(got.value) == str(exc)
    else:
        stream_capacity(geometry, routes, radio, mode, z, tr_phase=tr_phase)


@st.composite
def one_row_routes(draw):
    """(geometry, routes, z): two routes of drawn ends on one row of 3..40 nodes."""
    nodes = draw(st.integers(3, 40))
    geometry = NodeGeometry(LayoutConfig(nodes_per_stream=nodes, num_streams=1))  # no size warning
    routes = {}
    for stream in (1, 2):
        low = draw(st.integers(1, nodes - 2))
        high = draw(st.integers(low + 2, nodes))  # at least three nodes
        source, destination = (high, low) if draw(st.booleans()) else (low, high)
        routes[stream] = stream_route(geometry, 1, source, destination)
    return geometry, routes, draw(st.integers(2, nodes))


@PROPERTY_SETTINGS
@given(case=one_row_routes())
def test_clash_names_the_first_clashing_event(case):
    """Two routes on one row in the opposite TR phase: the error names the
    first event in ``reception_events`` order whose receiver's node is on air."""
    geometry, routes, z = case
    clashes = [
        ev
        for ev in reception_events(routes, MODE_TR, z, tr_phase="opposite")
        if routes[ev.stream].layout_node(ev.receiver) in {routes[k].layout_node(n) for k, n in ev.on_air}
    ]
    if not clashes:
        assert stream_capacity(geometry, routes, RadioConfig(), MODE_TR, z, tr_phase="opposite")
        return
    ev = clashes[0]
    want = "slot %d schedules node %d to receive from node %d while transmitting"
    with pytest.raises(ValueError) as got:
        stream_capacity(geometry, routes, RadioConfig(), MODE_TR, z, tr_phase="opposite")
    assert str(got.value) == want % (ev.slot, ev.receiver, ev.transmitter)
