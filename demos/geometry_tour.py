"""Lay out the node grid and look at the distances that drive SINR.

Two parallel rows of equally spaced nodes. Interference between the
rows travels the diagonal, so the row separation sets how much the
second stream costs the first.
"""

from multihop import LayoutConfig, build_layout, stream_route

geometry = build_layout(LayoutConfig(nodes_per_stream=5, num_streams=2,
                                     hop_length_m=100.0, row_separation_m=300.0))

print("node positions [m]")
for stream, node in geometry.nodes():
    x, y = geometry.position(stream, node)
    print("  stream %d node %d: (%6.1f, %6.1f)" % (stream, node, x, y))
print()

print("distances from stream 1 node 1 [m]")
for stream, node in geometry.nodes():
    if (stream, node) == (1, 1):
        continue
    d = geometry.distance((1, 1), (stream, node))
    print("  to stream %d node %d: %8.3f" % (stream, node, d))
print()

# One hop along the row is 100 m, straight across is 300 m, and the
# shortest cross-row diagonal is sqrt(100^2 + 300^2).
print("hop length        : %8.3f m" % geometry.distance((1, 1), (1, 2)))
print("row separation    : %8.3f m" % geometry.distance((1, 1), (2, 1)))
print("one-hop diagonal  : %8.3f m" % geometry.distance((1, 1), (2, 2)))
print()

# Routes carry the traffic between two nodes of one row; they can run
# in either direction and shorter routes skip the outer nodes.
route = stream_route(geometry, 1, 1, 5)
print("route 1 -> 5 on stream 1: nodes %s, %d hops" % (list(route.nodes), len(route.nodes) - 1))
route = stream_route(geometry, 2, 4, 1)
print("route 4 -> 1 on stream 2: nodes %s, %d hops" % (list(route.nodes), len(route.nodes) - 1))
