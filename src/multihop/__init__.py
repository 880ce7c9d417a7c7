"""Simulator for TDMA-scheduled multi-hop wireless line networks.

Computes SINR-based Shannon capacity for traditional store-and-forward
relaying and for two-way XOR relay coding, and cross-checks the capacity
model with a packet-level simulation of the same schedules.
"""

from multihop.layout import LayoutConfig, NodeGeometry, Route, build_layout, stream_route
from multihop.radio import RadioConfig, path_constant, received_power, noise_power, sinr, shannon_rate
from multihop.schedule import Schedule, tr_schedule, nc_schedule
from multihop.capacity import (
    ReceptionEvent,
    StreamCapacityReport,
    reception_events,
    event_sinr,
    stream_capacity,
)
from multihop.packetsim import (
    SimTrace,
    run_tr_sim,
    run_nc_sim,
    measured_latency,
    measured_delivery_rate,
    tr_latency,
    nc_latency_forward,
    nc_latency_reverse,
)
from multihop.harness import ExperimentSpec, ResultRow, load_config, run_sweep, compare_table4

__version__ = "0.1.0"
