"""Reception events, SINR evaluation, and capacity-per-slot behaviour."""

import math
import random

import pytest

from multihop.capacity import (
    build_schedules,
    capacity_per_slot,
    event_interference,
    event_sinr,
    reception_events,
    stream_capacity,
)
from multihop.harness import ConfigError, ExperimentSpec, run_sweep
from multihop.layout import LayoutConfig, build_layout, stream_route
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
        events = reception_events(build_schedules(routes, MODE_TR, 3), routes)
        slot1 = sorted(
            [e for e in events if e.slot == 1], key=lambda e: e.receiver
        )
        assert [(e.receiver, e.transmitter) for e in slot1] == [(2, 1), (5, 4)]
        assert slot1[0].interferers == frozenset({(1, 4)})
        assert slot1[1].interferers == frozenset({(1, 1)})
        assert all(e.direction == FORWARD for e in slot1)

    def test_event_counts_per_period(self):
        geo, routes = one_stream(5)
        tr = reception_events(build_schedules(routes, MODE_TR, 3), routes)
        nc = reception_events(build_schedules(routes, MODE_NC, 3), routes)
        assert len(tr) == 8, "each direction crosses 4 links once per period"
        assert len(nc) == 8, "broadcasts serve both directions in one period"
        assert sum(1 for e in nc if e.direction == FORWARD) == 4
        assert sum(1 for e in nc if e.direction == REVERSE) == 4

    def test_broadcast_slot_one_events(self):
        geo, routes = one_stream(5)
        events = reception_events(build_schedules(routes, MODE_NC, 4), routes)
        slot1 = sorted([e for e in events if e.slot == 1], key=lambda e: e.receiver)
        assert [(e.receiver, e.transmitter, e.direction) for e in slot1] == [
            (2, 1, FORWARD),
            (4, 5, REVERSE),
        ]

    def test_two_stream_events_see_the_other_row(self):
        geo, routes = two_streams(4)
        events = reception_events(build_schedules(routes, MODE_TR, 3), routes)
        mine = [e for e in events if e.stream == 1 and e.slot == 1]
        assert mine[0].interferers == frozenset({(2, 1)})

    def test_mismatched_periods_rejected(self):
        geo, routes = two_streams(4)
        schedules = build_schedules(routes, MODE_TR, 3)
        schedules[2] = build_schedules({2: routes[2]}, MODE_NC, 3)[2]
        with pytest.raises(ValueError):
            reception_events(schedules, routes)


class TestEventSinr:
    def test_single_interferer_oracle(self):
        geo, routes = one_stream(5)
        radio = RadioConfig()
        events = reception_events(build_schedules(routes, MODE_TR, 3), routes)
        ev = next(e for e in events if e.slot == 1 and e.receiver == 2)
        assert math.isclose(event_sinr(ev, geo, routes, radio), SINR_ONE_INTERFERER, rel_tol=1e-12)

    def test_clean_event_hits_the_interference_free_bound(self):
        geo, routes = one_stream(5)
        radio = RadioConfig()
        events = reception_events(build_schedules(routes, MODE_TR, 3), routes)
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
                for e in reception_events(build_schedules(routes1, mode, z), routes1)
            }
            for e in reception_events(build_schedules(routes2, mode, z), routes2):
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
    def test_opposite_phase_rotates_the_second_stream(self):
        geo, routes = two_streams(5)
        same = build_schedules(routes, MODE_TR, 3, tr_phase="same")
        opp = build_schedules(routes, MODE_TR, 3, tr_phase="opposite")
        assert [ts.nodes() for ts in opp[1].sets] == [ts.nodes() for ts in same[1].sets]
        rotated = list(same[2].sets[3:]) + list(same[2].sets[:3])
        assert [ts.nodes() for ts in opp[2].sets] == [ts.nodes() for ts in rotated]
        assert [ts.slot for ts in opp[2].sets] == [1, 2, 3, 4, 5, 6]

    def test_opposite_phase_changes_interference_not_structure(self):
        geo, routes = two_streams(5)
        radio = RadioConfig()
        same = stream_capacity(geo, routes, radio, MODE_TR, 3, tr_phase="same")[1]
        opp = stream_capacity(geo, routes, radio, MODE_TR, 3, tr_phase="opposite")[1]
        assert len(same.events) == len(opp.events)

    def test_bad_phase_rejected(self):
        geo, routes = two_streams(5)
        with pytest.raises(ValueError):
            build_schedules(routes, MODE_TR, 3, tr_phase="sideways")


def optimum_spec(mode, z_values, hop_counts, streams):
    return ExperimentSpec(
        layout=LayoutConfig(nodes_per_stream=6, num_streams=streams),
        radio=RadioConfig(),
        modes=(mode,),
        z_values=z_values,
        hop_counts=hop_counts,
        streams=streams,
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
            events = reception_events(build_schedules(routes, MODE_TR, z), routes)
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
