"""Node geometry for one or two parallel rows of equally spaced radios."""

import math
import warnings
from dataclasses import dataclass

import numpy as np

VALIDATED_MAX_NODES_PER_STREAM = 6  # larger rows build fine but get flagged


@dataclass(frozen=True)
class LayoutConfig:
    """Grid parameters: equal hop spacing along each row, fixed row separation."""

    nodes_per_stream: int = 5
    num_streams: int = 2
    hop_length_m: float = 100.0
    row_separation_m: float = 300.0

    def __post_init__(self):
        if self.nodes_per_stream < 3:
            raise ValueError("nodes_per_stream must be at least 3, got %r" % (self.nodes_per_stream,))
        if self.num_streams not in (1, 2):
            raise ValueError("num_streams must be 1 or 2, got %r" % (self.num_streams,))
        for name in ("hop_length_m", "row_separation_m"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError("%s must be finite, got %r" % (name, getattr(self, name)))
        if self.hop_length_m <= 0:
            raise ValueError("hop_length_m must be positive")
        if self.num_streams == 2 and self.row_separation_m <= 0:
            raise ValueError("row_separation_m must be positive for two streams")
        span = ((self.nodes_per_stream - 1) * self.hop_length_m, (self.num_streams - 1) * self.row_separation_m)
        if not math.isfinite(math.hypot(*span)):  # the largest node distance
            raise ValueError(
                "hop_length_m %r and row_separation_m %r put the farthest nodes beyond float range"
                % (self.hop_length_m, self.row_separation_m)
            )


class NodeGeometry:
    """Positions and pairwise distances for every (stream, node) in a layout.

    Streams and nodes are 1-based. Node i of stream s sits at
    x = (i-1) * hop_length, y = (s-1) * row_separation, so opposite nodes of
    the two rows are index-aligned.
    """

    def __init__(self, config):
        self.config = config
        n, s = config.nodes_per_stream, config.num_streams
        xs = np.arange(n) * config.hop_length_m
        rows = []
        for stream in range(s):
            y = stream * config.row_separation_m
            rows.append(np.column_stack([xs, np.full(n, float(y))]))
        self._coords = np.vstack(rows)  # flat index: (stream-1)*n + (node-1)
        diff = self._coords[:, None, :] - self._coords[None, :, :]
        self._dist = np.hypot(diff[..., 0], diff[..., 1])  # squaring overflows above ~1e154 m

    def _flat(self, stream, node):
        n = self.config.nodes_per_stream
        if not (1 <= stream <= self.config.num_streams):
            raise ValueError("stream %r outside layout" % (stream,))
        if not (1 <= node <= n):
            raise ValueError("node %r outside stream of %d nodes" % (node, n))
        return (stream - 1) * n + (node - 1)

    def position(self, stream, node):
        """(x, y) in metres of one node."""
        return tuple(self._coords[self._flat(stream, node)])

    def distance(self, a, b):
        """Distance in metres between (stream, node) pairs a and b."""
        return float(self._dist[self._flat(*a), self._flat(*b)])

    def route_indices(self, route):
        """``distance_matrix`` index of each node of a route, in route order."""
        return (route.stream - 1) * self.config.nodes_per_stream + np.asarray(route.nodes) - 1

    @property
    def distance_matrix(self):
        """Symmetric matrix over all nodes, flat order: stream 1 row then stream 2."""
        return self._dist.copy()

    def nodes(self):
        """All (stream, node) pairs in flat order."""
        cfg = self.config
        return [
            (s, i)
            for s in range(1, cfg.num_streams + 1)
            for i in range(1, cfg.nodes_per_stream + 1)
        ]


def build_layout(config):
    """Construct geometry for a layout, warning when it exceeds the validated size."""
    if config.nodes_per_stream > VALIDATED_MAX_NODES_PER_STREAM:
        warnings.warn(
            "layout has %d nodes per stream, outside the validated range (max %d)"
            % (config.nodes_per_stream, VALIDATED_MAX_NODES_PER_STREAM),
            UserWarning,
            stacklevel=2,
        )
    return NodeGeometry(config)


@dataclass(frozen=True)
class Route:
    """A consecutive run of nodes within one row, source first."""

    stream: int
    nodes: tuple

    @property
    def source(self):
        return self.nodes[0]

    @property
    def destination(self):
        return self.nodes[-1]

    @property
    def num_nodes(self):
        return len(self.nodes)

    @property
    def hops(self):
        return len(self.nodes) - 1

    def layout_node(self, position):
        """Map a 1-based route position onto the layout node index."""
        return self.nodes[position - 1]


def stream_route(geometry, stream, source, destination):
    """Route along one row from source to destination node index.

    The route length becomes the effective node count for scheduling and
    capacity work on that stream; nodes outside it stay silent.
    """
    cfg = geometry.config
    if not (1 <= stream <= cfg.num_streams):
        raise ValueError("stream %r outside layout" % (stream,))
    for name, idx in (("source", source), ("destination", destination)):
        if not (1 <= idx <= cfg.nodes_per_stream):
            raise ValueError("%s node %r outside stream of %d nodes" % (name, idx, cfg.nodes_per_stream))
    if source == destination:
        raise ValueError("source and destination must differ")
    step = 1 if destination > source else -1
    nodes = tuple(range(source, destination + step, step))
    if len(nodes) < 3:
        raise ValueError("route needs at least 3 nodes (2 hops), got %d" % len(nodes))
    return Route(stream=stream, nodes=nodes)
