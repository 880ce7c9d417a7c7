"""The received-power matrix ``stream_capacity`` builds once per layout and
radio and reuses read-only.

The cache must save the power-law evaluation across a scan, give the same
reports as a cold call in any order of layouts and radios, and never carry
one layout's distance check over to another.
"""

import tracemalloc

import numpy as np
import pytest

from multihop import capacity
from multihop.capacity import event_sinr, reception_events, stream_capacity
from multihop.layout import LayoutConfig, NodeGeometry, stream_route
from multihop.radio import RadioConfig
from multihop.schedule import MODE_NC, MODE_TR

RADIO_A = RadioConfig()
RADIO_B = RadioConfig(tx_gain=2.0, rx_gain=2.0, noise_figure_db=3.0)


def rows(nodes, streams=2, reverse_second=False, **spacing):
    """Geometry of ``streams`` rows and one end-to-end route per row; the
    second row's route runs backwards when ``reverse_second`` is set."""
    geo = NodeGeometry(LayoutConfig(nodes_per_stream=nodes, num_streams=streams, **spacing))
    ends = {s: (1, nodes) for s in range(1, streams + 1)}
    if reverse_second and streams == 2:
        ends[2] = (nodes, 1)
    return geo, {s: stream_route(geo, s, *ends[s]) for s in ends}


@pytest.fixture
def power_builds(monkeypatch):
    """Radios the power law was evaluated for; ``path_constant`` is read once per build."""
    capacity._received_power.cache_clear()
    builds = []
    real = capacity.path_constant

    def counted(radio):
        builds.append(radio)
        return real(radio)

    monkeypatch.setattr(capacity, "path_constant", counted)
    yield builds
    capacity._received_power.cache_clear()


def scan(geo, routes, radio):
    return [stream_capacity(geo, routes, radio, mode, z) for mode in (MODE_TR, MODE_NC) for z in range(2, 17)]


def test_a_scan_evaluates_the_power_law_once(power_builds):
    geo, routes = rows(100)
    scan(geo, routes, RADIO_A)
    assert power_builds == [RADIO_A]
    scan(geo, routes, RADIO_B)
    assert power_builds == [RADIO_A, RADIO_B]
    other, other_routes = rows(100)
    scan(other, other_routes, RADIO_B)
    assert power_builds == [RADIO_A, RADIO_B, RADIO_B]


def test_interleaved_calls_match_cold_calls(power_builds):
    one, one_routes = rows(7, streams=1)
    two, two_routes = rows(7)
    calls = [
        (geo, routes, radio, mode, z, phase)
        for radio in (RADIO_A, RADIO_B, RADIO_A)
        for geo, routes in ((one, one_routes), (two, two_routes))
        for mode, z, phase in ((MODE_TR, 3, "opposite"), (MODE_NC, 2, "same"))
    ]
    warm = [stream_capacity(geo, routes, radio, mode, z, tr_phase=phase) for geo, routes, radio, mode, z, phase in calls]
    for (geo, routes, radio, mode, z, phase), got in zip(calls, warm):
        capacity._received_power.cache_clear()
        assert got == stream_capacity(geo, routes, radio, mode, z, tr_phase=phase)


@pytest.mark.parametrize("spacing", [{}, {"row_separation_m": 0.5}])
def test_cached_arrays_are_read_only_and_the_distances_untouched(power_builds, spacing):
    geo, routes = rows(6, **spacing)
    before = geo.distance_matrix
    stream_capacity(geo, routes, RADIO_A, MODE_NC, 2)
    power, near, close, odd = capacity._received_power(geo, RADIO_A)
    assert len(power_builds) == 1, "the lookup above reads the cached entry"
    assert not power.diagonal().any()
    neighbours = [(i, i + 1) for i in range(12) if i % 6 != 5]  # row neighbours, below then above
    assert not any(power[i, j] or power[j, i] for i, j in neighbours), "row-neighbour powers leave the far field"
    assert near.shape == (2, 12) and all(near[1, i] == near[0, j] > 0 for i, j in neighbours)
    assert not near[0, ::6].any() and not near[1, 5::6].any(), "a row's end nodes have one row neighbour"
    assert (close is None) == (not spacing), "the close-pair mask is kept only when some pair is close"
    assert odd is None, "no power overflows at this radio"
    for array in [a for a in (power, near, close, odd) if a is not None]:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0, 1] = 0
    after = geo.distance_matrix
    assert np.array_equal(after, before) and after.flags.writeable and not after.diagonal().any()


@pytest.mark.parametrize("mode", [MODE_TR, MODE_NC])
def test_a_call_peaks_below_an_events_by_nodes_matrix(power_builds, mode):
    """Two 100-node rows: 396 events x 200 nodes of float64 would be 634 KB.
    Interference is one product of the power matrix with the on-air rows, so a
    warm call peaks below 400 KB; a cold call also builds the 320 KB power
    matrix, in place, and peaks below 800 KB."""
    geo, routes = rows(100)
    peaks = []
    for _ in ("cold", "warm"):
        tracemalloc.start()
        try:
            stream_capacity(geo, routes, RADIO_A, mode, 2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    cold, warm = peaks
    assert power_builds == [RADIO_A], "the first call is cold and the second reads its matrix"
    assert cold < 800_000 and warm < 400_000, peaks


def test_a_warm_call_gathers_no_cast_buffer():
    """A warm TR Z 16 call on two 100-node rows holds its 32 on-air rows as
    floats, their 51 KB product with the power matrix and its own arrays, about
    130 KB; gathering power rows by event and multiplying them by a bool mask
    took a 64 KB float copy of the mask and peaked at 235 KB."""
    geo, routes = rows(100)
    stream_capacity(geo, routes, RADIO_A, MODE_TR, 2)  # builds the received-power matrix
    tracemalloc.start()
    try:
        stream_capacity(geo, routes, RADIO_A, MODE_TR, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200_000, peak


def scalar_error(geo, routes, radio, mode, z, phase):
    """The message ``event_sinr`` raises on the period's events, or None."""
    try:
        for ev in reception_events(routes, mode, z, tr_phase=phase):
            event_sinr(ev, geo, routes, radio)
    except ValueError as exc:
        return str(exc)
    return None


def test_close_rows_after_a_cached_layout_fail_where_the_scalar_path_fails():
    normal, normal_routes = rows(8)
    verdicts = set()
    for mode in (MODE_TR, MODE_NC):
        for phase in ("same", "opposite"):
            for reverse_second in (False, True):
                for z in range(2, 9):
                    want = stream_capacity(normal, normal_routes, RADIO_A, mode, z, tr_phase=phase)
                    near, near_routes = rows(8, reverse_second=reverse_second, row_separation_m=0.5)
                    expected = scalar_error(near, near_routes, RADIO_A, mode, z, phase)
                    verdicts.add(expected is None)
                    if expected is None:
                        stream_capacity(near, near_routes, RADIO_A, mode, z, tr_phase=phase)
                    else:
                        with pytest.raises(ValueError) as exc:
                            stream_capacity(near, near_routes, RADIO_A, mode, z, tr_phase=phase)
                        assert str(exc.value) == expected
                    assert stream_capacity(normal, normal_routes, RADIO_A, mode, z, tr_phase=phase) == want
    assert verdicts == {True, False}, "the grid must hold both rejected and accepted close-row cases"


@pytest.mark.parametrize("streams", [1, 2])
def test_sub_reference_hops_fail_after_a_cached_layout(streams):
    normal, normal_routes = rows(6, streams=streams)
    stream_capacity(normal, normal_routes, RADIO_A, MODE_TR, 3)
    short, short_routes = rows(6, streams=streams, hop_length_m=0.5)
    with pytest.raises(ValueError, match=r"^distance 0\.500 m below the 1\.0 m reference$"):
        stream_capacity(short, short_routes, RADIO_A, MODE_TR, 3)
