"""Geometry and route-selection tests."""

import math
import warnings

import numpy as np
import pytest

from multihop import layout
from multihop.layout import (
    VALIDATED_MAX_NODES_PER_STREAM,
    LayoutConfig,
    NodeGeometry,
    build_layout,
    stream_route,
)

TWO_STREAM_DIAGONAL = 360.5551275463989  # hypot(2 hops, row separation) at defaults


def default_geometry(**kwargs):
    params = dict(nodes_per_stream=6, num_streams=2, hop_length_m=100.0, row_separation_m=300.0)
    params.update(kwargs)
    return build_layout(LayoutConfig(**params))


class TestLayoutConfig:
    def test_rejects_tiny_rows(self):
        with pytest.raises(ValueError):
            LayoutConfig(nodes_per_stream=2)

    @pytest.mark.parametrize("streams", [0, 3, -1])
    def test_rejects_unsupported_stream_counts(self, streams):
        with pytest.raises(ValueError):
            LayoutConfig(num_streams=streams)

    def test_rejects_non_positive_spacings(self):
        with pytest.raises(ValueError):
            LayoutConfig(hop_length_m=0.0)
        with pytest.raises(ValueError):
            LayoutConfig(num_streams=2, row_separation_m=0.0)

    @pytest.mark.parametrize("field", ["hop_length_m", "row_separation_m"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_spacings(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            LayoutConfig(**{field: value})

    @pytest.mark.parametrize(
        "params",
        [
            dict(hop_length_m=1e308),
            dict(nodes_per_stream=3, num_streams=1, hop_length_m=1e308),
            dict(nodes_per_stream=3, hop_length_m=6e307, row_separation_m=1.5e308),  # each leg finite, the diagonal not
        ],
        ids=["row", "one-row", "diagonal"],
    )
    def test_rejects_spacings_whose_largest_distance_overflows(self, params):
        with pytest.raises(ValueError, match=r"^hop_length_m .* and row_separation_m .* beyond float range$"):
            LayoutConfig(**params)

    def test_largest_finite_distance_is_accepted(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            geo = build_layout(LayoutConfig(nodes_per_stream=3, num_streams=1, hop_length_m=8e307))
        assert geo.distance((1, 1), (1, 3)) == 1.6e308


class TestGeometry:
    def test_positions_form_the_grid(self):
        geo = default_geometry()
        assert geo.position(1, 1) == (0.0, 0.0)
        assert geo.position(1, 4) == (300.0, 0.0)
        assert geo.position(2, 1) == (0.0, 300.0)
        assert geo.position(2, 6) == (500.0, 300.0)

    def test_adjacent_nodes_exactly_one_hop_apart(self):
        geo = default_geometry()
        for stream in (1, 2):
            for node in range(1, 6):
                assert geo.distance((stream, node), (stream, node + 1)) == 100.0

    def test_cross_stream_diagonal(self):
        geo = default_geometry()
        assert math.isclose(geo.distance((1, 1), (2, 3)), TWO_STREAM_DIAGONAL, rel_tol=1e-12)

    def test_opposite_nodes_are_one_separation_apart(self):
        geo = default_geometry()
        for node in range(1, 7):
            assert geo.distance((1, node), (2, node)) == 300.0

    def test_distance_matrix_symmetric_zero_diagonal(self):
        geo = default_geometry()
        m = geo.distance_matrix
        assert np.allclose(m, m.T, rtol=0, atol=0)
        assert np.all(np.diag(m) == 0.0)

    def test_distance_matrix_matches_recomputation(self):
        geo = default_geometry(hop_length_m=173.2, row_separation_m=412.5)
        pairs = geo.nodes()
        m = geo.distance_matrix
        for i, a in enumerate(pairs):
            for j, b in enumerate(pairs):
                ax, ay = geo.position(*a)
                bx, by = geo.position(*b)
                want = math.hypot(ax - bx, ay - by)
                assert math.isclose(m[i, j], want, rel_tol=1e-9, abs_tol=1e-9)

    def test_huge_spacing_gives_finite_distances(self):
        # squaring a 1e160 m difference overflows a float; the distances must not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            geo = default_geometry(hop_length_m=1e160, row_separation_m=1e160)
        assert np.all(np.isfinite(geo.distance_matrix))
        assert geo.distance((1, 1), (1, 2)) == 1e160
        assert geo.distance((1, 3), (2, 3)) == 1e160

    def test_large_rows_build_with_a_warning(self):
        with pytest.warns(UserWarning):
            build_layout(LayoutConfig(nodes_per_stream=VALIDATED_MAX_NODES_PER_STREAM + 1, num_streams=1))

    def test_validated_size_builds_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build_layout(LayoutConfig(nodes_per_stream=VALIDATED_MAX_NODES_PER_STREAM, num_streams=1))


class TestSizeLimit:
    """A geometry holds about 24 B per node pair while it builds, so one whose build could pass
    2**31 B is refused before numpy is called. ``LayoutConfig`` itself has no limit: ``simulate``
    makes one for any row and builds no geometry."""

    @pytest.fixture
    def no_numpy(self, monkeypatch):
        class NoNumpy:
            def __getattr__(self, name):
                raise AssertionError("numpy was called: np.%s" % name)

        monkeypatch.setattr(layout, "np", NoNumpy())

    @pytest.mark.parametrize("streams,nodes,need", [(1, 9459, 2147788240), (2, 4730, 2148242336)])
    def test_a_layout_past_the_limit_is_refused_before_allocating(self, no_numpy, streams, nodes, need):
        config = LayoutConfig(nodes_per_stream=nodes, num_streams=streams)
        with pytest.raises(ValueError) as exc:
            NodeGeometry(config)
        assert str(exc.value) == (
            "layout too large: %d stream(s) x %d nodes could take %d B to build, over the 2**31 B limit"
            % (streams, nodes, need)
        )

    @pytest.mark.parametrize("streams,nodes", [(1, 9458), (2, 4729)])
    def test_the_largest_layout_within_the_limit_is_allocated(self, no_numpy, streams, nodes):
        with pytest.raises(AssertionError, match="numpy was called: np.arange"):
            NodeGeometry(LayoutConfig(nodes_per_stream=nodes, num_streams=streams))


class TestStreamRoute:
    def test_partial_route(self):
        route = stream_route(default_geometry(), 1, 1, 4)
        assert route.nodes == (1, 2, 3, 4)

    def test_full_row(self):
        route = stream_route(default_geometry(), 2, 1, 6)
        assert route.nodes == (1, 2, 3, 4, 5, 6)

    def test_descending_route(self):
        route = stream_route(default_geometry(), 1, 6, 3)
        assert route.nodes == (6, 5, 4, 3)

    def test_route_from_a_middle_node(self):
        route = stream_route(default_geometry(), 1, 3, 6)
        assert route.nodes == (3, 4, 5, 6)

    def test_route_indices_follow_the_distance_matrix_order(self):
        geo = default_geometry()
        flat = geo.nodes()
        for route in (stream_route(geo, 2, 5, 2), stream_route(geo, 1, 1, 6)):
            want = [flat.index((route.stream, node)) for node in route.nodes]
            assert geo.route_indices(route).tolist() == want

    def test_degenerate_route_rejected(self):
        with pytest.raises(ValueError):
            stream_route(default_geometry(), 1, 3, 3)

    def test_single_hop_rejected(self):
        with pytest.raises(ValueError):
            stream_route(default_geometry(), 1, 1, 2)

    def test_out_of_range_endpoints_rejected(self):
        geo = default_geometry()
        with pytest.raises(ValueError):
            stream_route(geo, 1, 0, 4)
        with pytest.raises(ValueError):
            stream_route(geo, 1, 1, 7)
        with pytest.raises(ValueError):
            stream_route(geo, 3, 1, 4)

    def test_consecutive_route_nodes_one_hop_apart(self):
        geo = default_geometry(hop_length_m=250.0)
        route = stream_route(geo, 1, 2, 5)
        for p in range(1, len(route.nodes)):
            a = (route.stream, route.nodes[p - 1])
            b = (route.stream, route.nodes[p])
            assert geo.distance(a, b) == 250.0
