"""Packet-engine tests: XOR algebra, golden trace, latency and rate oracles."""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from multihop.packetsim import (
    Delivery,
    PacketId,
    SteadyStateError,
    label_name,
    measured_delivery_rate,
    measured_latency,
    nc_latency_forward,
    nc_latency_reverse,
    render_trace,
    run_nc_sim,
    run_tr_sim,
    tr_latency,
    trace_to_csv_text,
    xor,
)
from multihop.schedule import FORWARD, MODE_NC, MODE_TR, REVERSE

GRID = [(nodes, z) for nodes in range(3, 8) for z in range(2, 7)]

# the first few packets of a 5-node coded run, in injection order
A = PacketId(FORWARD, 1, 1)
B = PacketId(REVERSE, 1, 5)
C = PacketId(FORWARD, 2, 1)
D = PacketId(REVERSE, 2, 5)
E = PacketId(FORWARD, 3, 1)
F = PacketId(REVERSE, 3, 5)


def lab(*pids):
    return frozenset(pids)


class TestXorAlgebra:
    def test_self_cancels(self):
        assert xor(lab(A), lab(A)) == lab()

    def test_identity(self):
        assert xor(lab(), lab(A)) == lab(A)

    def test_strip_one_component(self):
        assert xor(lab(A, B), lab(B)) == lab(A)

    def test_disjoint_union(self):
        assert xor(lab(A, B), lab(C, B)) == lab(A, C)
        assert xor(lab(A, B), lab(C, B)) == xor(lab(C, B), lab(A, B))

    def test_random_labels_commute_associate_cancel(self):
        rng = random.Random(20240817)
        pool = [PacketId(d, s, o) for d in (FORWARD, REVERSE) for s in range(1, 9) for o in (1, 7)]
        for _ in range(300):
            a = frozenset(rng.sample(pool, rng.randint(0, 6)))
            b = frozenset(rng.sample(pool, rng.randint(0, 6)))
            c = frozenset(rng.sample(pool, rng.randint(0, 6)))
            assert xor(a, b) == xor(b, a)
            assert xor(xor(a, b), c) == xor(a, xor(b, c))
            assert xor(a, a) == lab()
            assert xor(a, lab()) == a


class TestPacketNames:
    def test_alphabet_alternates_by_direction(self):
        assert A.name == "A"
        assert B.name == "B"
        assert C.name == "C"
        assert D.name == "D"
        assert E.name == "E"

    def test_label_name_sorts_components(self):
        assert label_name(lab(B, A)) == "A^B"
        assert label_name(lab(D, C)) == "C^D"
        assert label_name(lab()) == "-"

    def test_names_beyond_the_alphabet(self):
        assert PacketId(REVERSE, 13, 5).name == "Z"
        assert PacketId(FORWARD, 14, 1).name == "F14"
        assert PacketId(REVERSE, 14, 5).name == "R14"


@pytest.fixture(scope="module")
def trace():
    return run_nc_sim(5, 4)


class TestGoldenCodedTrace:
    """5 nodes, period 4: the canonical two-way coded exchange, slot by slot."""

    def test_transmissions_first_ten_slots(self, trace):
        want = [
            {1: lab(A), 5: lab(B)},
            {2: lab(A)},
            {3: lab(A)},
            {4: lab(A, B)},
            {1: lab(C), 5: lab(D)},
            {2: lab(C)},
            {3: lab(B, C)},
            {4: lab(C, D)},
            {1: lab(E), 5: lab(F)},
            {2: lab(B, E)},
        ]
        got = [rec.transmissions for rec in trace.slots[:10]]
        assert got == want

    def test_combiner_events(self, trace):
        # node 4 pairs the two directions at the end of slot 3, and so on
        assert trace.slots[2].xors == ((4, lab(A, B)),)
        assert trace.slots[5].xors == ((3, lab(B, C)),)
        assert trace.slots[6].xors == ((4, lab(C, D)),)
        assert trace.slots[8].xors == ((2, lab(B, E)),)

    def test_first_forward_delivery(self, trace):
        assert trace.slots[3].deliveries == (
            Delivery(packet=A, node=5, slot=4, latency=4),
        )

    def test_first_reverse_delivery(self, trace):
        assert trace.slots[9].deliveries == (
            Delivery(packet=B, node=1, slot=10, latency=10),
        )

    def test_every_delivery_is_a_single_source_packet(self, trace):
        for d in trace.deliveries:
            assert d.node in (1, 5)
            assert (d.packet.direction == FORWARD) == (d.node == 5)


class TestLatencyFormulas:
    @pytest.mark.parametrize("nodes,z", GRID)
    def test_store_and_forward_latency(self, nodes, z):
        trace = run_tr_sim(nodes, z)
        want = tr_latency(nodes, z)
        assert measured_latency(trace, FORWARD) == want
        assert measured_latency(trace, REVERSE) == want

    @pytest.mark.parametrize("nodes,z", GRID)
    def test_coded_latencies(self, nodes, z):
        trace = run_nc_sim(nodes, z)
        assert measured_latency(trace, FORWARD) == nc_latency_forward(nodes)
        assert measured_latency(trace, REVERSE) == nc_latency_reverse(nodes, z)

    def test_closed_forms_spot_values(self):
        assert tr_latency(5, 3) == 7
        assert tr_latency(5, 4) == 4
        assert tr_latency(7, 2) == 10
        assert nc_latency_forward(5) == 4
        assert nc_latency_reverse(5, 4) == 10
        assert nc_latency_reverse(6, 3) == 9

    def test_generous_period_collapses_to_hop_count(self):
        # with z >= nodes-1 a forward packet rides consecutive slots end to end
        for nodes in (3, 4, 5, 6):
            assert tr_latency(nodes, nodes - 1) == nodes - 1


class TestDeliveryRates:
    @pytest.mark.parametrize("nodes,z", GRID)
    def test_exact_rate_factors(self, nodes, z):
        assert measured_delivery_rate(run_tr_sim(nodes, z)) == Fraction(1, z)
        assert measured_delivery_rate(run_nc_sim(nodes, z)) == Fraction(2, z)

    def test_smallest_coded_network_delivers_every_slot(self):
        assert measured_delivery_rate(run_nc_sim(3, 2)) == 1


class TestTraceIntegrity:
    @pytest.mark.parametrize("nodes,z", [(4, 2), (5, 4), (6, 3), (7, 5)])
    def test_nothing_dropped(self, nodes, z):
        assert run_tr_sim(nodes, z).dropped == 0
        assert run_nc_sim(nodes, z).dropped == 0

    @pytest.mark.parametrize("nodes,z", [(4, 2), (5, 4), (6, 3)])
    def test_conservation_every_slot(self, nodes, z):
        # injected = delivered + stored, with each undelivered packet stored
        # in exactly one place
        for trace in (run_tr_sim(nodes, z), run_nc_sim(nodes, z)):
            injected = set()
            delivered = set()
            inj_by_slot = {}
            for pid, slot in trace.injections.items():
                inj_by_slot.setdefault(slot, []).append(pid)
            for rec in trace.slots:
                injected.update(inj_by_slot.get(rec.slot, []))
                delivered.update(d.packet for d in rec.deliveries)
                stored = [p for _, _, label in rec.stored for p in label]
                assert len(stored) == len(set(stored)), "a packet is stored twice"
                assert set(stored) == injected - delivered

    @pytest.mark.parametrize("nodes,z", [(4, 2), (5, 3), (5, 4), (6, 3), (7, 2)])
    def test_steady_state_matches_schedule(self, nodes, z):
        for trace in (run_tr_sim(nodes, z), run_nc_sim(nodes, z)):
            for rec in trace.slots:
                assert set(rec.transmissions) <= set(rec.scheduled)
                if rec.slot > trace.warmup_slots:
                    assert set(rec.transmissions) == set(rec.scheduled)

    def test_short_run_refuses_to_measure(self):
        with pytest.raises(SteadyStateError):
            measured_latency(run_tr_sim(5, 3, num_periods=3), FORWARD)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            run_tr_sim(2, 3)
        with pytest.raises(ValueError):
            run_nc_sim(5, 1)


class TestTraceExport:
    def test_rendered_table_contains_the_story(self):
        text = render_trace(run_nc_sim(5, 4), last=10)
        assert "NC nodes=5 z=4 period=4" in text
        assert "4:A^B" in text
        assert "A->5 L=4" in text
        assert "B->1 L=10" in text

    def test_csv_export_lists_every_slot(self):
        trace = run_tr_sim(4, 2, num_periods=4)
        text = trace_to_csv_text(trace)
        lines = text.strip().splitlines()
        assert lines[0] == "slot,scheduled,transmissions,xors,deliveries"
        assert len(lines) == 1 + trace.total_slots
        assert lines[1].startswith("1,")


@st.composite
def sim_cases(draw):
    """(mode, nodes, z) with 3 <= nodes <= 64 and 2 <= z <= nodes."""
    nodes = draw(st.integers(3, 64))
    return draw(st.sampled_from((MODE_TR, MODE_NC))), nodes, draw(st.integers(2, nodes))


class TestEngineProperties:
    """Both modes run through one engine; these hold far past the hand-picked grids."""

    @settings(
        max_examples=20,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(sim_cases())
    def test_rate_latency_drops_and_schedule(self, case):
        mode, nodes, z = case
        if mode == MODE_TR:
            trace = run_tr_sim(nodes, z)
            rate, fwd, rev = Fraction(1, z), tr_latency(nodes, z), tr_latency(nodes, z)
        else:
            trace = run_nc_sim(nodes, z)
            rate, fwd, rev = Fraction(2, z), nc_latency_forward(nodes), nc_latency_reverse(nodes, z)
        assert measured_delivery_rate(trace) == rate
        assert measured_latency(trace, FORWARD) == fwd
        assert measured_latency(trace, REVERSE) == rev
        assert trace.dropped == 0
        # every scheduled node sends once both directions have delivered: on
        # long rows with a short period the pipeline fills after the warmup
        filled = max(
            min(d.slot for d in trace.deliveries if d.packet.direction == direction)
            for direction in (FORWARD, REVERSE)
        )
        for rec in trace.slots:
            assert set(rec.transmissions) <= set(rec.scheduled)
            if rec.slot >= filled:
                assert set(rec.transmissions) == set(rec.scheduled)
