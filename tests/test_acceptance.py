"""Acceptance criteria, one test per criterion, run with ``pytest -v``.

Each test prints as its own pass/fail line. Two outcomes are intentional and
documented rather than patched over:

* criterion 7b is a genuine failure under the default parameters: at the
  published optimum periods both two-stream modes share Z=3, where the coded
  schedule's worst reception events coincide with the store-and-forward ones,
  so the measured improvement sits at (or near) exactly 100 percent, above the
  allowed band for three of the four hop counts. The band cannot be met
  without changing the radio defaults, and silently doing so would falsify the
  comparison, so the red stays.
* criterion 8 is best-effort by its own definition and is marked xfail: the
  published absolute values imply a different gain and noise-figure reading
  than the published defaults (a fitted in-range alternative, gains 2 and
  noise figure 3 dB, lands every capacity cell within 15 percent but still
  matches only 4 of 8 optimum-period groups).
"""

import math
import random
import time
import warnings
from fractions import Fraction

import pytest

from multihop.capacity import (
    capacity_per_slot,
    event_interference,
    reception_events,
)
from multihop.harness import compare_table4, table4_rows
from multihop.layout import LayoutConfig, build_layout, stream_route
from multihop.packetsim import (
    measured_delivery_rate,
    measured_latency,
    nc_latency_forward,
    nc_latency_reverse,
    run_nc_sim,
    run_tr_sim,
    tr_latency,
)
from multihop.radio import RadioConfig, path_constant, received_power
from multihop.schedule import FORWARD, MODE_NC, MODE_TR, REVERSE
from reference import forward_set, reverse_set

LATENCY_GRID = [(nodes, z) for nodes in range(3, 8) for z in range(2, 7)]


@pytest.fixture(scope="module")
def reference_rows():
    return table4_rows()


@pytest.fixture(scope="module")
def reference_comparison(reference_rows):
    return compare_table4(reference_rows)


def test_criterion_01_schedule_golden_sets():
    assert forward_set(5, 3, 1) == {1, 4}
    assert forward_set(5, 3, 2) == {2}
    assert forward_set(5, 3, 3) == {3}
    assert reverse_set(5, 3, 1) == {5, 2}
    assert reverse_set(5, 3, 2) == {4}
    assert reverse_set(5, 3, 3) == {3}


def test_criterion_02_latency_formula_oracle():
    start = time.perf_counter()
    for nodes, z in LATENCY_GRID:
        tr = run_tr_sim(nodes, z)
        nc = run_nc_sim(nodes, z)
        assert measured_latency(tr, FORWARD) == tr_latency(nodes, z), (nodes, z)
        assert measured_latency(tr, REVERSE) == tr_latency(nodes, z), (nodes, z)
        assert measured_latency(nc, FORWARD) == nc_latency_forward(nodes), (nodes, z)
        assert measured_latency(nc, REVERSE) == nc_latency_reverse(nodes, z), (nodes, z)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, "latency grid took %.2f s" % elapsed


def test_criterion_03_golden_coded_trace():
    # packets are bit indices, A = 0 (forward 1) and B = 1 (reverse 1); a label sets one bit per packet
    trace = run_nc_sim(5, 4)
    assert trace.slots[2].xors == ((4, 0b11),), "combiner forms A^B in slot 3"
    assert trace.slots[3].deliveries == ((0, 5, 4, 4),), "A reaches node 5 in slot 4, latency 4"
    assert trace.slots[9].deliveries == ((1, 1, 10, 10),), "B reaches node 1 in slot 10, latency 10"


def test_criterion_04_delivery_rate_factors():
    for nodes, z in LATENCY_GRID:
        assert measured_delivery_rate(run_tr_sim(nodes, z)) == Fraction(1, z), (nodes, z)
        assert measured_delivery_rate(run_nc_sim(nodes, z)) == Fraction(2, z), (nodes, z)


def test_criterion_05_capacity_formula_identity():
    rng = random.Random(75801)
    for _ in range(500):
        f = rng.uniform(1.0, 1e8)
        r = rng.uniform(1.0, 1e8)
        z = rng.randint(2, 12)
        tr = capacity_per_slot(MODE_TR, z, f, r)
        nc = capacity_per_slot(MODE_NC, z, f, r)
        assert math.isclose(nc, 2.0 * tr, rel_tol=1e-12)


def test_criterion_06_interference_monotonicity():
    radio = RadioConfig()
    for nodes in range(3, 8):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            geo = build_layout(LayoutConfig(nodes_per_stream=nodes, num_streams=1))
        routes = {1: stream_route(geo, 1, 1, nodes)}
        by_z = {}
        for z in (2, 3, 4, 5):
            events = reception_events(routes, MODE_TR, z)
            by_z[z] = {
                (e.receiver, e.transmitter): event_interference(e, geo, routes, radio)
                for e in events
                if e.direction == FORWARD
            }
        for key, base in by_z[2].items():
            chain = [by_z[z][key] for z in (2, 3, 4, 5)]
            for earlier, later in zip(chain, chain[1:]):
                assert later <= earlier * (1 + 1e-12), (nodes, key, chain)


def _improvements_at_published_z(comparison, streams):
    return {
        imp.hops: imp.at_published_z_pct
        for imp in comparison.improvements
        if imp.streams == streams
    }


def test_criterion_07a_one_stream_improvement_band(reference_comparison):
    """Coded gain over store-and-forward at the published optimum periods,
    one stream: published band 50..100 percent, widened by 10 points."""
    improvements = _improvements_at_published_z(reference_comparison, streams=1)
    assert set(improvements) == {2, 3, 4, 5}
    for hops, pct in sorted(improvements.items()):
        assert pct > 0.0, "coded capacity must beat store-and-forward (hops %d)" % hops
        assert 40.0 <= pct <= 110.0, "one-stream improvement %.1f%% at %d hops outside [40, 110]" % (pct, hops)


def test_criterion_07b_two_stream_improvement_band(reference_comparison):
    """Two streams: published band 52..88 percent, widened by 10 points.

    Genuinely red under the default radio parameters: both modes share the
    published optimum Z=3, and for 2, 4 and 5 hops the worst reception events
    of the two schedules coincide exactly, making the coded capacity exactly
    twice the store-and-forward value, i.e. a 100 percent improvement, above
    the 98 percent cap. See the failure message for the measured values.
    """
    improvements = _improvements_at_published_z(reference_comparison, streams=2)
    assert set(improvements) == {2, 3, 4, 5}
    for hops, pct in sorted(improvements.items()):
        assert pct > 0.0, "coded capacity must beat store-and-forward (hops %d)" % hops
    outside = {h: round(p, 1) for h, p in sorted(improvements.items()) if not 42.0 <= p <= 98.0}
    assert not outside, (
        "two-stream improvements outside [42, 98] percent: %r (all: %r)"
        % (outside, {h: round(p, 1) for h, p in sorted(improvements.items())})
    )


@pytest.mark.xfail(
    strict=False,
    reason="best-effort by definition: the published absolute values cannot be "
    "reproduced under the published default parameters; deltas are reported "
    "instead (a fitted in-range alternative, gains 2 and noise figure 3 dB, "
    "brings every capacity cell within 15 percent but optimum-period groups "
    "still match only 4 of 8)",
)
def test_criterion_08_reference_table_quantitative(reference_comparison):
    comparison = reference_comparison
    for cell in comparison.cells:
        print(
            "streams=%d mode=%s hops=%d: published z=%d capacity=%.3f Mbps, "
            "computed z=%d capacity=%.3f Mbps, delta %+.1f%% %s"
            % (
                cell.streams, cell.mode, cell.hops, cell.published_z,
                cell.published_mbps, cell.computed_z, cell.computed_mbps,
                cell.delta_pct, cell.note,
            )
        )
    groups = comparison.group_z_matches()
    matched = sum(1 for ok in groups.values() if ok)
    within, total = comparison.capacity_within(25.0)
    print("matched optimum-Z groups: %d/8, capacity cells within 25%%: %d/%d" % (matched, within, total))
    assert matched >= 6, "only %d of 8 (mode x hops) groups match the published optimum Z" % matched
    assert within == total, "%d of %d capacity cells outside the 25%% band" % (total - within, total)


def test_criterion_09_friis_agreement():
    cfg = RadioConfig(path_loss_exponent=2.0)
    lam = cfg.wavelength_m
    for distance in (1.0, 3.7, 25.0, 100.0, 640.0, 5000.0):
        friis = cfg.tx_power_w * cfg.tx_gain * cfg.rx_gain * (lam / (4.0 * math.pi * distance)) ** 2
        got = received_power(cfg, distance)
        assert math.isclose(got, friis, rel_tol=1e-12, abs_tol=0.0), distance
    assert math.isclose(
        received_power(cfg, 1.0), cfg.tx_power_w * path_constant(cfg), rel_tol=1e-12
    )


def test_criterion_10_sweep_performance():
    start = time.perf_counter()
    rows = table4_rows()
    elapsed = time.perf_counter() - start
    assert len(rows) == 2 * 2 * 4 * 4
    assert elapsed < 5.0, "reference-grid sweep took %.2f s" % elapsed
