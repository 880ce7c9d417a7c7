"""Large-N capacity against the infinite-line lattice sum.

Under the physical model of Gupta and Kumar (The Capacity of Wireless
Networks, IEEE Trans. IT 2000), a receiver one hop from its transmitter,
on an infinite line whose co-slot transmitters sit every Z hops, hears
I_inf = sum_{k>=1} [P((kZ-1)d) + P((kZ+1)d)] from its own row and, with a
second row at the same phase h away, sum_{k in Z} P(sqrt((kZ-1)^2 d^2 + h^2)).
A finite line's co-slot transmitters are a subset of that lattice, and around
the transmitter t nearest mid-line all of them out to K = min((t-1)//Z,
(N-1-t)//Z) periods are on air. So each directional bottleneck lies between
the rates of S / (I_inf + noise) and S / (I_inf - tail_K + noise), tail_K the
lattice terms beyond K periods, and the smaller one cannot rise with N. The
only slack allowed is float rounding.
"""

from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from multihop.capacity import stream_capacity
from multihop.cli import ALT_NOISE_FIGURE_DB, ALT_RX_GAIN, ALT_TX_GAIN
from multihop.harness import DEFAULTS, layout_from_config, radio_from_config, stream_routes
from multihop.layout import NodeGeometry
from multihop.radio import noise_power, received_power, shannon_rate
from multihop.schedule import MODE_NC, MODE_TR

ROUNDING = 1e-12  # relative slack for float summation order, nothing more
NODES = list(range(3, 13)) + [20, 40, 100, 200]
Z_VALUES = range(2, 9)
TERMS = 1 << 12  # lattice periods summed term by term; the rest is bounded by an integral
RADIOS = {
    "default": radio_from_config(DEFAULTS),
    "alt": replace(radio_from_config(DEFAULTS), tx_gain=ALT_TX_GAIN, rx_gain=ALT_RX_GAIN, noise_figure_db=ALT_NOISE_FIGURE_DB),
}


@lru_cache(maxsize=None)
def lattice(rows, z, eta, h):
    """(I_inf, tails) in units of the one-hop signal P(d), h the row separation
    in hops: tails[K] bounds from above the terms of the periods k > K, so
    I_inf - tails[K] is exactly the sum over periods up to K."""
    k = np.arange(1, TERMS + 1, dtype=float)
    near, far = k * z - 1, k * z + 1  # own-row interferers k periods behind / ahead, in hops
    terms = near**-eta + far**-eta
    if rows == 2:
        terms += (near**2 + h**2) ** (-eta / 2) + (far**2 + h**2) ** (-eta / 2)
    # the terms fall with k, so the sum past TERMS is at most the integral from
    # TERMS on; the other row's terms are bounded by its own row's
    rest = rows * ((TERMS * z - 1) ** (1 - eta) + (TERMS * z + 1) ** (1 - eta)) / (z * (eta - 1))
    tails = np.append(np.cumsum(terms[::-1])[::-1], 0.0) + rest  # smallest terms summed first
    centre = (1 + h**2) ** (-eta / 2) if rows == 2 else 0.0  # the other row's k = 0 transmitter
    return centre + tails[0], tails


def bounds(radio, layout, rows, z, nodes):
    """(lowest, highest) rate any directional bottleneck of an N-node line may take."""
    signal = received_power(radio, layout.hop_length_m)
    total, tails = lattice(rows, z, radio.path_loss_exponent, layout.row_separation_m / layout.hop_length_m)
    t = nodes // 2
    reach = min((t - 1) // z, (nodes - 1 - t) // z)
    noise = noise_power(radio)
    return (
        shannon_rate(radio, signal / (signal * total + noise)),
        shannon_rate(radio, signal / (signal * (total - tails[reach]) + noise)),
    )


@pytest.mark.parametrize("radio", sorted(RADIOS))
@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize("mode", [MODE_TR, MODE_NC])
def test_bottlenecks_lie_within_the_lattice_bounds(mode, rows, radio):
    radio = RADIOS[radio]
    for z in Z_VALUES:
        smaller = []
        for nodes in NODES:
            layout = replace(layout_from_config(DEFAULTS), nodes_per_stream=nodes, num_streams=rows)
            geometry = NodeGeometry(layout)  # no size warning
            lowest, highest = bounds(radio, layout, rows, z, nodes)
            reports = stream_capacity(geometry, stream_routes(geometry, nodes), radio, mode, z)
            for rep in reports.values():
                for bps in (rep.forward_bottleneck_bps, rep.reverse_bottleneck_bps):
                    assert bps >= lowest * (1 - ROUNDING), (z, nodes, bps, lowest)
                    assert bps <= highest * (1 + ROUNDING), (z, nodes, bps, highest)
            smaller.append(min(min(rep.forward_bottleneck_bps, rep.reverse_bottleneck_bps) for rep in reports.values()))
        for nodes, before, after in zip(NODES[1:], smaller, smaller[1:]):
            assert after <= before * (1 + ROUNDING), (z, nodes, before, after)


@pytest.mark.parametrize("rows,limit_bps", [(1, 3_007_206), (2, 2_848_907)])
def test_infinite_line_rate_at_z_3(rows, limit_bps):
    """The lattice rate S / (I_inf + noise) on the default layout and radio, to the bit per second."""
    layout = replace(layout_from_config(DEFAULTS), num_streams=rows)
    assert round(bounds(RADIOS["default"], layout, rows, 3, 200)[0]) == limit_bps
