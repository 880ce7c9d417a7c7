"""Property tests: the power-matrix pass in ``stream_capacity`` against the
scalar per-event reference ``event_sinr``.

The matrix pass sums interference in another order than the scalar loop, so
results are compared with a relative tolerance of 1e-12, far above the
rounding of a float64 sum of a few dozen positive terms.
"""

import math
import warnings
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from multihop import capacity
from multihop.capacity import build_schedules, event_sinr, reception_events, stream_capacity
from multihop.layout import LayoutConfig, build_layout, stream_route
from multihop.radio import RadioConfig, shannon_rate
from multihop.schedule import MODE_NC, MODE_TR

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
def scenarios(draw, hop_length_m=100.0, row_separation_m=300.0):
    """(geometry, routes, mode, z, tr_phase) over 1-2 rows of 3..40 nodes.

    Each row's route is a random run of at least three nodes, in either
    direction, so route lengths differ and routes may run backwards.
    """
    nodes = draw(st.integers(3, 40))
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
    z = draw(st.integers(2, nodes))
    tr_phase = draw(st.sampled_from(["same", "opposite"]))
    return geometry, routes, mode, z, tr_phase


def close(got, want):
    return math.isclose(got, want, rel_tol=REL, abs_tol=0.0)


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
    schedules = build_schedules(routes, mode, z, tr_phase=tr_phase)
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
    events = reception_events(build_schedules(routes, mode, z, tr_phase=tr_phase), routes)
    try:
        for ev in events:
            event_sinr(ev, geometry, routes, radio)
    except ValueError:
        with pytest.raises(ValueError, match="reference"):
            stream_capacity(geometry, routes, radio, mode, z, tr_phase=tr_phase)
    else:
        stream_capacity(geometry, routes, radio, mode, z, tr_phase=tr_phase)
