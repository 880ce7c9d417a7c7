"""Independent expected values the benchmark checks the program against.

Nothing here imports multihop. The closed forms are the schedule
latencies and delivery rates of the model; the capacity oracle rebuilds
the SINR physical model (Gupta and Kumar, IEEE Trans. IT 2000) from the
layout geometry and the periodic transmit sets with numpy, so a capacity
the program returns can be checked on any seeded radio, not only on the
seed whose results are stored under ``reference/``.
"""

import math

# the model's constants, as the program defines them
SPEED_OF_LIGHT = 2.998e8  # m/s
BOLTZMANN = 1.38e-23  # J/K


def tr_latency(nodes, z):
    return nodes - 1 + z * ((nodes - 2) // z)


def nc_latency_forward(nodes):
    return nodes - 1


def nc_latency_reverse(nodes, z):
    return (nodes - 2) * (z - 1) + 1


def expected_latencies(mode, nodes, z):
    """(forward, reverse) latency in slots for one route of ``nodes`` nodes."""
    if mode == "TR":
        return tr_latency(nodes, z), tr_latency(nodes, z)
    return nc_latency_forward(nodes), nc_latency_reverse(nodes, z)


def expected_rate(mode, z):
    """(numerator, denominator) of delivered packets per slot, both directions."""
    return (1, z) if mode == "TR" else (2, z)


def _slot_events(mode, nodes, z):
    """Per slot, the list of (transmitter, receiver, forward?) on one route.

    Positions are 1-based along the route. Traditional relaying sends
    forward in slots 1..z (nodes s, s+z, ... up to nodes-1) and reverse in
    slots z+1..2z (the mirror image); coded relaying broadcasts from nodes
    s, s+z, ... up to nodes in slots 1..z.
    """
    slots = []
    if mode == "TR":
        for s in range(1, z + 1):
            slots.append([(t, t + 1, True) for t in range(s, nodes, z)])
        for s in range(1, z + 1):
            slots.append([(t, t - 1, False) for t in range(nodes + 1 - s, 1, -z)])
    else:
        for s in range(1, z + 1):
            events = []
            for t in range(s, nodes + 1, z):
                if t > 1:
                    events.append((t, t - 1, False))
                if t < nodes:
                    events.append((t, t + 1, True))
            slots.append(events)
    return slots


def stream_capacities(radio, mode, z, nodes, streams, hop_length_m, row_separation_m):
    """{stream: (forward_bps, reverse_bps, capacity_bps)} for routes 1..nodes.

    Every row runs the same schedule in the same slots; each reception
    hears every other transmitter on air, in both rows, as interference.
    ``radio`` is a dict of RadioConfig field values.
    """
    # imported here, not at the top, so that a setup probe times numpy's
    # import as part of importing multihop
    import numpy as np

    x = np.arange(nodes) * hop_length_m
    coords = np.vstack([np.column_stack([x, np.full(nodes, s * row_separation_m)]) for s in range(streams)])
    dist = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2))
    wavelength = SPEED_OF_LIGHT / radio["frequency_hz"]
    k = radio["tx_gain"] * radio["rx_gain"] * (wavelength / (4.0 * math.pi)) ** 2
    noise = 10.0 ** (radio["noise_figure_db"] / 10.0) * BOLTZMANN * radio["temperature_k"] * radio["bandwidth_hz"]
    fwd = {s: math.inf for s in range(streams)}
    rev = {s: math.inf for s in range(streams)}
    for events in _slot_events(mode, nodes, z):
        if not events:
            continue
        on_air = np.array(sorted({s * nodes + t - 1 for s in range(streams) for t, _, _ in events}))
        tx = np.array([s * nodes + t - 1 for s in range(streams) for t, _, _ in events])
        rx = np.array([s * nodes + r - 1 for s in range(streams) for _, r, _ in events])
        power = radio["tx_power_w"] * k * (1.0 / dist[rx][:, on_air]) ** radio["path_loss_exponent"]
        own = on_air[None, :] == tx[:, None]
        signal = power[own]
        interference = np.where(own, 0.0, power).sum(axis=1)
        rates = radio["bandwidth_hz"] * np.log2(1.0 + signal / (interference + noise))
        forward = [f for _, _, f in events] * streams
        for i, rate in enumerate(rates.tolist()):
            stream = i // len(events)
            if forward[i]:
                fwd[stream] = min(fwd[stream], rate)
            else:
                rev[stream] = min(rev[stream], rate)
    period = z if mode == "NC" else 2 * z
    return {s + 1: (fwd[s], rev[s], (fwd[s] + rev[s]) / period) for s in range(streams)}
