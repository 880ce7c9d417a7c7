"""Reception events, SINR evaluation, and capacity-per-slot behaviour."""

import hashlib
import math
import random

import pytest

from multihop.capacity import (
    capacity_per_slot,
    event_interference,
    event_sinr,
    reception_events,
    stream_capacity,
)
from multihop.cli import ALT_NOISE_FIGURE_DB, ALT_RX_GAIN, ALT_TX_GAIN
from multihop.harness import ConfigError, ExperimentSpec, run_sweep
from multihop.layout import LayoutConfig, NodeGeometry, build_layout, stream_route
from multihop.radio import RadioConfig, noise_power, path_constant, shannon_rate
from multihop.schedule import FORWARD, MODE_NC, MODE_TR, REVERSE

SINR_ONE_INTERFERER = 7.375551932377162  # wanted at 1 hop, interferer at 2 hops


def one_stream(nodes=5):
    geo = build_layout(LayoutConfig(nodes_per_stream=6, num_streams=1))
    return geo, {1: stream_route(geo, 1, 1, nodes)}


def two_streams(nodes=5):
    geo = build_layout(LayoutConfig(nodes_per_stream=6, num_streams=2))
    return geo, {s: stream_route(geo, s, 1, nodes) for s in (1, 2)}


class TestReceptionEvents:
    def test_store_and_forward_slot_one_golden(self):
        geo, routes = one_stream(5)
        events = reception_events(routes, MODE_TR, 3)
        slot1 = sorted(
            [e for e in events if e.slot == 1], key=lambda e: e.receiver
        )
        assert [(e.receiver, e.transmitter) for e in slot1] == [(2, 1), (5, 4)]
        assert slot1[0].interferers == frozenset({(1, 4)})
        assert slot1[1].interferers == frozenset({(1, 1)})
        assert all(e.direction == FORWARD for e in slot1)

    def test_event_counts_per_period(self):
        geo, routes = one_stream(5)
        tr = reception_events(routes, MODE_TR, 3)
        nc = reception_events(routes, MODE_NC, 3)
        assert len(tr) == 8, "each direction crosses 4 links once per period"
        assert len(nc) == 8, "broadcasts serve both directions in one period"
        assert sum(1 for e in nc if e.direction == FORWARD) == 4
        assert sum(1 for e in nc if e.direction == REVERSE) == 4

    def test_broadcast_slot_one_events(self):
        geo, routes = one_stream(5)
        events = reception_events(routes, MODE_NC, 4)
        slot1 = sorted([e for e in events if e.slot == 1], key=lambda e: e.receiver)
        assert [(e.receiver, e.transmitter, e.direction) for e in slot1] == [
            (2, 1, FORWARD),
            (4, 5, REVERSE),
        ]

    def test_two_stream_events_see_the_other_row(self):
        geo, routes = two_streams(4)
        events = reception_events(routes, MODE_TR, 3)
        mine = [e for e in events if e.stream == 1 and e.slot == 1]
        assert mine[0].interferers == frozenset({(2, 1)})


class TestEventSinr:
    def test_single_interferer_oracle(self):
        geo, routes = one_stream(5)
        radio = RadioConfig()
        events = reception_events(routes, MODE_TR, 3)
        ev = next(e for e in events if e.slot == 1 and e.receiver == 2)
        assert math.isclose(event_sinr(ev, geo, routes, radio), SINR_ONE_INTERFERER, rel_tol=1e-12)

    def test_clean_event_hits_the_interference_free_bound(self):
        geo, routes = one_stream(5)
        radio = RadioConfig()
        events = reception_events(routes, MODE_TR, 3)
        ev = next(e for e in events if e.slot == 2)
        assert ev.interferers == frozenset()
        assert event_interference(ev, geo, routes, radio) == 0.0
        clean = radio.tx_power_w * path_constant(radio) / (100.0 ** 4) / noise_power(radio)
        assert math.isclose(event_sinr(ev, geo, routes, radio), clean, rel_tol=1e-12)


class TestCapacityPerSlot:
    def test_coded_mode_doubles_the_formula(self):
        rng = random.Random(611)
        for _ in range(200):
            f = rng.uniform(1e3, 1e7)
            r = rng.uniform(1e3, 1e7)
            z = rng.randint(2, 8)
            tr = capacity_per_slot(MODE_TR, z, f, r)
            nc = capacity_per_slot(MODE_NC, z, f, r)
            assert math.isclose(nc, 2.0 * tr, rel_tol=1e-12)

    def test_known_values(self):
        assert capacity_per_slot(MODE_TR, 3, 3e6, 3e6) == 1e6
        assert capacity_per_slot(MODE_NC, 3, 3e6, 3e6) == 2e6

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            capacity_per_slot("XX", 3, 1.0, 1.0)


class TestStreamCapacity:
    def test_directional_bottlenecks_are_mirror_equal(self):
        radio = RadioConfig()
        for mode, z in ((MODE_TR, 2), (MODE_TR, 3), (MODE_NC, 3), (MODE_NC, 4)):
            geo, routes = one_stream(5)
            rep = stream_capacity(geo, routes, radio, mode, z)[1]
            assert math.isclose(
                rep.forward_bottleneck_bps, rep.reverse_bottleneck_bps, rel_tol=1e-12
            )

    def test_bottleneck_is_the_worst_event(self):
        geo, routes = one_stream(5)
        radio = RadioConfig()
        rep = stream_capacity(geo, routes, radio, MODE_TR, 3)[1]
        fwd_rates = [r for ev, s, r in rep.events if ev.direction == FORWARD]
        assert rep.forward_bottleneck_bps == min(fwd_rates)
        assert math.isclose(
            rep.forward_bottleneck_bps,
            shannon_rate(radio, SINR_ONE_INTERFERER),
            rel_tol=1e-12,
        )

    def test_rates_bounded_by_interference_free_link(self):
        radio = RadioConfig()
        bound = shannon_rate(
            radio, radio.tx_power_w * path_constant(radio) / (100.0 ** 4) / noise_power(radio)
        )
        geo, routes = two_streams(6)
        for mode in (MODE_TR, MODE_NC):
            for z in (2, 3, 4, 5):
                for rep in stream_capacity(geo, routes, radio, mode, z).values():
                    for ev, s, r in rep.events:
                        assert 0.0 < r <= bound * (1 + 1e-12)

    def test_two_streams_report_symmetrically(self):
        geo, routes = two_streams(5)
        reports = stream_capacity(geo, routes, RadioConfig(), MODE_NC, 3)
        assert math.isclose(
            reports[1].capacity_bps, reports[2].capacity_bps, rel_tol=1e-12
        )

    def test_second_stream_never_raises_sinr(self):
        radio = RadioConfig()
        geo1, routes1 = one_stream(5)
        geo2, routes2 = two_streams(5)
        for mode, z in ((MODE_TR, 2), (MODE_TR, 4), (MODE_NC, 3)):
            solo = {
                (e.slot, e.receiver, e.transmitter): event_sinr(e, geo1, routes1, radio)
                for e in reception_events(routes1, mode, z)
            }
            for e in reception_events(routes2, mode, z):
                if e.stream != 1:
                    continue
                key = (e.slot, e.receiver, e.transmitter)
                assert event_sinr(e, geo2, routes2, radio) <= solo[key] * (1 + 1e-12)

    def test_capacity_uses_the_mode_formula(self):
        geo, routes = one_stream(5)
        radio = RadioConfig()
        for mode in (MODE_TR, MODE_NC):
            rep = stream_capacity(geo, routes, radio, mode, 3)[1]
            want = capacity_per_slot(mode, 3, rep.forward_bottleneck_bps, rep.reverse_bottleneck_bps)
            assert math.isclose(rep.capacity_bps, want, rel_tol=1e-12)


class TestTrPhase:
    def test_opposite_phase_changes_interference_not_structure(self):
        geo, routes = two_streams(5)
        radio = RadioConfig()
        same = stream_capacity(geo, routes, radio, MODE_TR, 3, tr_phase="same")[1]
        opp = stream_capacity(geo, routes, radio, MODE_TR, 3, tr_phase="opposite")[1]
        assert len(same.events) == len(opp.events)

    @pytest.mark.parametrize(
        "z, receiver, transmitter, slot", [(2, 2, 1, 1), (3, 4, 3, 3), (4, 2, 1, 1)]
    )
    def test_two_routes_on_one_row_clash_only_in_opposite_phase(self, z, receiver, transmitter, slot):
        """Stream 2 on stream 1's row, a half cycle out of phase, makes a node
        send while it is addressed; in phase the two copies only interfere."""
        geo, routes = two_streams(6)
        same_row = {1: routes[1], 2: routes[1]}
        want = "slot %d schedules node %d to receive from node %d while transmitting" % (slot, receiver, transmitter)
        with pytest.raises(ValueError, match="^%s$" % want):
            stream_capacity(geo, same_row, RadioConfig(), MODE_TR, z, tr_phase="opposite")
        assert stream_capacity(geo, same_row, RadioConfig(), MODE_TR, z, tr_phase="same")[1].capacity_bps > 0

    def test_bad_phase_rejected(self):
        geo, routes = two_streams(5)
        with pytest.raises(ValueError):
            reception_events(routes, MODE_TR, 3, tr_phase="sideways")


def optimum_spec(mode, z_values, hop_counts, streams):
    return ExperimentSpec(
        layout=LayoutConfig(nodes_per_stream=6, num_streams=streams),
        radio=RadioConfig(),
        modes=(mode,),
        z_values=z_values,
        hop_counts=hop_counts,
    )


def flagged_z(rows, hops):
    """The optimum-flagged Z of one hop count's group."""
    (row,) = [r for r in rows if r.hops == hops and r.optimum_flag]
    return row.z


class TestOptimumZ:
    """The sweep's optimum flag: the Z maximizing stream-1 capacity, ties to the smaller Z."""

    def test_one_stream_three_hops_store_and_forward(self):
        # hop count 4 widens the spec's Z bound so the 3-hop group sees Z = 5
        rows = run_sweep(optimum_spec(MODE_TR, (2, 3, 4, 5), (3, 4), streams=1))
        assert flagged_z(rows, 3) == 3
        assert {r.z for r in rows if r.hops == 3} == {2, 3, 4, 5}

    def test_two_stream_coded_optimum(self):
        rows = run_sweep(optimum_spec(MODE_NC, (2, 3, 4, 5), (2, 3, 4, 5), streams=2))
        for hops in (2, 3, 4, 5):
            assert flagged_z(rows, hops) == 3

    def test_empty_candidate_list_rejected(self):
        with pytest.raises(ConfigError, match="z_values must be non-empty"):
            optimum_spec(MODE_TR, (), (3,), streams=1)


class TestInterferenceMonotonicity:
    def test_growing_period_never_adds_interference(self):
        radio = RadioConfig()
        geo, routes = one_stream(5)
        by_z = {}
        for z in (2, 3, 4, 5):
            events = reception_events(routes, MODE_TR, z)
            by_z[z] = {
                (e.receiver, e.transmitter): event_interference(e, geo, routes, radio)
                for e in events
                if e.direction == FORWARD
            }
        for key in by_z[2]:
            chain = [by_z[z][key] for z in (2, 3, 4, 5)]
            assert all(a >= b - 1e-30 for a, b in zip(chain, chain[1:]))


class TestOverflowFailsLoudly:
    def test_overflowing_gains_fail_loudly(self):
        geo, routes = two_streams(5)
        radio = RadioConfig(tx_gain=1e200, rx_gain=1e200)  # K overflows to inf
        with pytest.raises(ValueError, match="stream 1 forward SINR is nan"):
            stream_capacity(geo, routes, radio, MODE_NC, 3)

    def test_overflowing_power_fails_loudly(self):
        geo, routes = one_stream(5)
        radio = RadioConfig(tx_power_w=1e300, tx_gain=1e10)  # finite K, infinite signal
        with pytest.raises(ValueError, match="stream 1 (forward|reverse) SINR is inf"):
            stream_capacity(geo, routes, radio, MODE_TR, 3)

    def test_overflowing_rate_fails_loudly(self):
        geo, routes = one_stream(5)
        radio = RadioConfig(
            bandwidth_hz=1e308, tx_power_w=1e300, tx_gain=1e5, rx_gain=1e5, path_loss_exponent=2.0
        )  # finite SINRs, but B * log2(1 + SINR) overflows
        with pytest.raises(ValueError, match="stream 1 capacity is inf bps"):
            stream_capacity(geo, routes, radio, MODE_TR, 3)


# sha256 over repr((forward, reverse, capacity)) of every report, taken
# before the received-power matrix was cached across calls
STRESS_PARITY_SHA256 = "e04ca4fa3d7fb2e95306e2168207c37ff03ebbb0c39a0ad19d9b45a4ce231149"


def test_stress_capacities_are_pinned():
    """TR/NC x Z 2..16 x both TR phases on two 100-node rows, default and
    ``table4 --alt`` radios: bottlenecks and capacities stay bit-identical."""
    geo = NodeGeometry(LayoutConfig(nodes_per_stream=100, num_streams=2))  # no size warning
    routes = {s: stream_route(geo, s, 1, 100) for s in (1, 2)}
    digest = hashlib.sha256()
    for radio in (RadioConfig(), RadioConfig(tx_gain=ALT_TX_GAIN, rx_gain=ALT_RX_GAIN, noise_figure_db=ALT_NOISE_FIGURE_DB)):
        for mode in (MODE_TR, MODE_NC):
            for tr_phase in ("same", "opposite"):
                for z in range(2, 17):
                    reports = stream_capacity(geo, routes, radio, mode, z, tr_phase=tr_phase)
                    for stream in sorted(reports):
                        rep = reports[stream]
                        values = (rep.forward_bottleneck_bps, rep.reverse_bottleneck_bps, rep.capacity_bps)
                        digest.update(repr(values).encode())
    assert digest.hexdigest() == STRESS_PARITY_SHA256


# sha256 over repr(list of every event's SINR in ``events`` order) of every
# report of the grid above, taken while the kernel still sorted its events
EVENT_SINR_SHA256 = "de86777b3555d5f0a748d569c823c3a5d42a17593ba375f5ab80e80ab68b57fd"


def test_stress_event_sinrs_are_pinned():
    """The same grid: every event's SINR, in ``reception_events`` order, stays
    bit-identical, so the ``events`` view pairs each event with its own SINR."""
    geo = NodeGeometry(LayoutConfig(nodes_per_stream=100, num_streams=2))  # no size warning
    routes = {s: stream_route(geo, s, 1, 100) for s in (1, 2)}
    digest = hashlib.sha256()
    for radio in (RadioConfig(), RadioConfig(tx_gain=ALT_TX_GAIN, rx_gain=ALT_RX_GAIN, noise_figure_db=ALT_NOISE_FIGURE_DB)):
        for mode in (MODE_TR, MODE_NC):
            for tr_phase in ("same", "opposite"):
                for z in range(2, 17):
                    reports = stream_capacity(geo, routes, radio, mode, z, tr_phase=tr_phase)
                    for stream in sorted(reports):
                        digest.update(repr([s for _, s, _ in reports[stream].events]).encode())
    assert digest.hexdigest() == EVENT_SINR_SHA256
