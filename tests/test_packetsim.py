"""Packet-engine tests: packet names, golden trace, latency and rate oracles."""

import hashlib
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from multihop import harness, packetsim
from multihop.packetsim import (
    Delivery,
    PacketId,
    SimTrace,
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
)
from multihop.schedule import (
    BROADCAST,
    FORWARD,
    MODE_NC,
    MODE_TR,
    REVERSE,
    ScheduleConfig,
    nc_schedule,
    period_events,
    tr_schedule,
)
from reference import receivers
from test_schedule import periods, reference_sets

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


def closed_form(mode, nodes, z):
    """(rate, forward latency, reverse latency, fill slot) the schedule predicts.

    The fill slot is when both directions have first delivered: the high end
    first injects in slot s_N, Z+1 under TR and (N-1) % Z + 1 under NC.
    """
    if mode == MODE_TR:
        rate, fwd, rev, s_n = Fraction(1, z), tr_latency(nodes, z), tr_latency(nodes, z), z + 1
    else:
        rate, fwd, rev, s_n = Fraction(2, z), nc_latency_forward(nodes), nc_latency_reverse(nodes, z), (nodes - 1) % z + 1
    return rate, fwd, rev, max(fwd, s_n + rev - 1)


def fixed_periods(mode, nodes, z):
    """The fixed run length the pinned traces were taken at: 3 warmup periods,
    a pipeline-fill estimate and 8 more periods."""
    period = 2 * z if mode == MODE_TR else z
    return 3 + math.ceil((nodes * z + 2) / period) + 8


def simulate(mode, nodes, z, num_periods=None):
    return (run_tr_sim if mode == MODE_TR else run_nc_sim)(nodes, z, num_periods=num_periods)


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

    def test_a_broadcast_serves_its_lower_receiver_first(self):
        # on 3 nodes the relay's XOR reaches both ends in one slot: node 1 decodes first
        trace = run_nc_sim(3, 2)
        assert trace_to_csv_text(trace).splitlines()[2] == "2,2,2:A^B,,B@1:L2;A@3:L2"
        assert trace._delivered[:4] == [(1, 1, 2, 2), (0, 3, 2, 2), (3, 1, 4, 2), (2, 3, 4, 2)]


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
        for mode in (MODE_TR, MODE_NC):
            trace = simulate(mode, nodes, z)
            assert trace.warmup_slots == closed_form(mode, nodes, z)[3]
            for rec in trace.slots:
                assert set(rec.transmissions) <= set(rec.scheduled)
                if rec.slot >= trace.warmup_slots:
                    assert set(rec.transmissions) == set(rec.scheduled)

    def test_short_run_refuses_to_measure(self):
        with pytest.raises(SteadyStateError):
            measured_latency(run_tr_sim(5, 3, num_periods=3), FORWARD)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            run_tr_sim(2, 3)
        with pytest.raises(ValueError):
            run_nc_sim(5, 1)

    @pytest.mark.parametrize("run", [run_tr_sim, run_nc_sim])
    @pytest.mark.parametrize("num_periods", [0, -3, True])
    def test_bad_num_periods_rejected(self, run, num_periods):
        # a run of no periods used to measure as Fraction(0) with a negative warmup
        with pytest.raises(ValueError, match="num_periods"):
            run(6, 3, num_periods=num_periods)

    def test_bad_direction_rejected(self):
        # an unchecked direction would read as reverse on the bit-index path
        with pytest.raises(ValueError, match="sideways"):
            measured_latency(run_tr_sim(5, 3), "sideways")


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
        trace = simulate(mode, nodes, z)
        rate, fwd, rev, filled = closed_form(mode, nodes, z)
        assert measured_delivery_rate(trace) == rate
        assert measured_latency(trace, FORWARD) == fwd
        assert measured_latency(trace, REVERSE) == rev
        assert trace.dropped == 0
        # warmup is observed, not guessed: it ends when the pipeline fills, and
        # from then on every scheduled node sends
        assert trace.warmup_slots == filled
        for rec in trace.slots:
            assert set(rec.transmissions) <= set(rec.scheduled)
            if rec.slot >= trace.warmup_slots:
                assert set(rec.transmissions) == set(rec.scheduled)


@settings(max_examples=60, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(period=periods(), mode=st.sampled_from((MODE_TR, MODE_NC)))
@example(period=(64, 192), mode=MODE_NC)
@example(period=(4, 5), mode=MODE_TR)  # TR forward slots 4 and 5 and reverse slot 5 are empty
def test_the_engine_sends_and_delivers_as_the_reference_addresses(period, mode):
    """The engine plans its slots from ``period_events``. For N 3..64 and
    Z 2..3N in both modes, every replayed send comes from a node the reference
    puts on air in that slot, and every stored or delivered receiver, with its
    direction of travel, is one a sender of that slot addresses."""
    nodes, z = period
    trace = simulate(mode, nodes, z)
    slots = reference_sets(mode, nodes, z)
    delivered = {}  # slot -> receiving nodes
    for _, node, t, _ in trace._delivered:
        delivered.setdefault(t, set()).add(node)
    for t, _, sent, touched, *_ in trace._replay(1, trace.total_slots):
        direction, on_air = slots[(t - 1) % len(slots)]
        assert set(sent[::2]) <= on_air, t
        addressed = {(r, int(r < n)) for n in sent[::2] for r in receivers(direction, n, nodes)}
        assert set(zip(touched[::3], touched[1::3])) <= addressed, t
        assert delivered.get(t, set()) <= {r for r, _ in addressed}, t


TABLE4_SIMS = [(mode, nodes, z) for mode in (MODE_TR, MODE_NC) for nodes in range(3, 7) for z in range(2, 6)]
STRESS_SIMS = [(mode, nodes, z) for mode in (MODE_TR, MODE_NC) for nodes in (9, 17, 33, 64) for z in range(2, 17)]
PREFIX_SIMS = [(mode, nodes, z) for mode in (MODE_TR, MODE_NC) for nodes in range(3, 30) for z in range(2, min(nodes, 14) + 1)]


class TestRunLength:
    """A default run stops once its steady state is observed."""

    @pytest.mark.parametrize("cases,slots", [(TABLE4_SIMS, 885), (STRESS_SIMS, 39224)])
    def test_total_slots_are_pinned(self, cases, slots):
        assert sum(simulate(*case).total_slots for case in cases) == slots

    def test_table4_run_lengths_are_pinned(self):
        # perfbench's traced packetsim.slots and .deliveries are four times these
        traces = [simulate(*case) for case in TABLE4_SIMS]
        assert len(traces) == 32
        assert sum(t.total_slots for t in traces) == 885
        assert sum(len(t.deliveries) for t in traces) == 327
        assert sum(len(t.injections) for t in traces) == 375

    @pytest.mark.parametrize("mode,nodes,z", PREFIX_SIMS)
    def test_default_run_is_a_prefix_of_a_fixed_run(self, mode, nodes, z):
        short = trace_to_csv_text(simulate(mode, nodes, z)).splitlines()
        fixed = trace_to_csv_text(simulate(mode, nodes, z, fixed_periods(mode, nodes, z))).splitlines()
        common = min(len(short), len(fixed))
        assert short[:common] == fixed[:common]

    def test_no_steady_state_hits_the_cap(self, monkeypatch):
        # the high end never transmits, so nothing travels in reverse
        def muted(mode, z, nodes, opposite=False):
            slot, tx, rx = period_events(mode, z, nodes, opposite)
            keep = tx != nodes
            return slot[keep], tx[keep], rx[keep]

        monkeypatch.setattr("multihop.schedule.period_events", muted)
        with pytest.raises(SteadyStateError, match=r"no steady state within 120 slots"):
            run_tr_sim(5, 3)


def refuse_to_plan(monkeypatch):
    """Make planning the period's slots, the first thing a run or a replay allocates, fail."""

    def refuse(*args, **kwargs):
        raise AssertionError("a run was planned")

    monkeypatch.setattr(packetsim, "slot_plan", refuse)


class TestSizeLimit:
    """A run that could keep more than 2**31 bytes is rejected before it allocates anything."""

    @pytest.mark.parametrize(
        "run,nodes,z,num_periods,message",
        [
            (run_nc_sim, 1_000_000_001, 3, None,
             "4e+09 GB at nodes=1000000001 z=3 periods=4000000004"),
            (run_tr_sim, 64, 2, 3045993, "2.15 GB at nodes=64 z=2 periods=3045993"),
            (run_nc_sim, 22740, 3, None, "2.15 GB at nodes=22740 z=3 periods=90960"),
        ],
    )
    def test_an_oversized_run_is_rejected_before_it_is_planned(self, monkeypatch, run, nodes, z, num_periods, message):
        refuse_to_plan(monkeypatch)
        with pytest.raises(ValueError) as exc:
            run(nodes, z, num_periods=num_periods)
        assert str(exc.value) == "run too large: it could keep %s, over the 2.15 GB limit" % message

    @pytest.mark.parametrize("run,nodes,z,num_periods", [(run_nc_sim, 22739, 3, None), (run_tr_sim, 64, 2, 3045992)])
    def test_the_largest_runs_within_the_limit_are_planned(self, monkeypatch, run, nodes, z, num_periods):
        refuse_to_plan(monkeypatch)
        with pytest.raises(AssertionError, match="a run was planned"):
            run(nodes, z, num_periods=num_periods)

    @pytest.mark.parametrize("run,slots,reverse", [(run_tr_sim, 7_000_000_004, 4), (run_nc_sim, 8_000_000_002, 2_999_999_998)])
    def test_a_huge_period_is_not_a_large_run(self, run, slots, reverse):
        # the plan holds only the slots that have a sender (8 under TR, 5 under NC), so Z does not size a run
        tracemalloc.start()
        try:
            trace = run(5, 10**9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.total_slots == slots and peak < 64_000, peak
        assert measured_latency(trace, FORWARD) == 4 and measured_latency(trace, REVERSE) == reverse


class TestReplayLimit:
    """Trace text whose slots could take more than 2**31 bytes is refused before the replay plans a slot."""

    @pytest.fixture(scope="class")
    def trace(self):
        return run_tr_sim(3, 10**9)  # 7,000,000,002 slots, 4 of each period's 2e9 with a sender

    @pytest.mark.parametrize("read", [render_trace, trace_to_csv_text, lambda trace: trace.slots],
                             ids=["render", "csv", "slots"])
    def test_a_huge_trace_is_refused(self, monkeypatch, trace, read):
        refuse_to_plan(monkeypatch)
        with pytest.raises(ValueError) as exc:
            read(trace)
        assert str(exc.value) == (
            "trace too large: slots 1..7000000002 could take 2.8e+03 GB at nodes=3 z=1000000000, over the 2.15 GB limit"
        )

    @pytest.mark.parametrize("last,planned", [(5_368_707, True), (5_368_708, False)])
    def test_the_limit_is_on_the_last_slot(self, monkeypatch, trace, last, planned):
        # 400 B a slot and 200 B a node a period: 400 * 5,368,707 + 200 * 3 is just under 2**31
        refuse_to_plan(monkeypatch)
        with pytest.raises(AssertionError if planned else ValueError):
            render_trace(trace, 1, last)


class TestRenderRange:
    @pytest.fixture(scope="class")
    def trace(self):
        return run_nc_sim(5, 4, num_periods=17)

    def test_rows_cover_exactly_the_requested_slots(self, trace):
        text = render_trace(trace, first=2, last=3)
        rows = text.splitlines()[3:]
        assert [row.split()[0] for row in rows] == ["2", "3"]

    @pytest.mark.parametrize("first,last", [(0, None), (0, 3), (-1, 3), (4, 3), (1, 69), (69, None)])
    def test_out_of_range_slots_rejected(self, trace, first, last):
        assert trace.total_slots == 68
        with pytest.raises(ValueError):
            render_trace(trace, first=first, last=last)

    def test_a_range_renders_as_the_full_table_does(self, trace):
        full = render_trace(trace).splitlines()[3:]
        part = render_trace(trace, first=30, last=45).splitlines()[3:]
        assert [row.split() for row in part] == [row.split() for row in full[29:45]]


# sha256 of (trace_to_csv_text, render_trace) for runs of fixed_periods, as the
# frozenset-label engine wrote them; an engine change must reproduce them
TRACE_DIGESTS = {
    ("TR", 6, 2): (
        "d28f2935cb454870ce18e0c4d761af8efff2d2bbef91602167fac8f9d5502305",
        "300b55e737e2d2b5c6de504bd108a8682f1b3934b1cb7d25745a42c42cdeec53",
    ),
    ("TR", 6, 5): (
        "cc0e720f66da5bda2946fc90fbb5f82e5997e8816bda6fe0767c3273d33f9c90",
        "3aa2ecd4178343c0710d5d7accb6b0577e6655b19a68e337f201d70d1add9667",
    ),
    ("TR", 6, 6): (
        "072c690339ff88109c6db4865e85b19abb9f67cc20c0e07c458220a93f53e1bf",
        "0d94709939beb499ac5c841c96c5ca74e0699c4277a47f2ff554ce354eba3253",
    ),
    ("TR", 17, 2): (
        "35ae5a7a6206a5cf2de2e44090eb3e83c5f4a808a7b4036f5f4ab8ae35d315bc",
        "9c54b200804f8312f82c18ba9655c4559d307e9ae994dedfc69bac44892f1c22",
    ),
    ("TR", 17, 5): (
        "7da8e49037623ab2ca1b404ba18c0929e7bc02a78eec27c975d1f1a2bf214582",
        "939b6bace5175e4a9f80a4af0496487ba58f470fd3b9df16dbd1346efc8eecf4",
    ),
    ("TR", 17, 17): (
        "9004789ee6269e4c7df18d7f808110453a0e5b80025d78c681dd331b5354e05c",
        "b6c94a984403e9e57dd175cb8493aa11787388d40f6581b23b5f38686c1e22d8",
    ),
    ("TR", 29, 2): (
        "1a57b89793e49a56c14e443fe5db122fc80936fee3aff437160ce1c3a28dc664",
        "29a22b935a42c77c22e9befb318426deb95825abcdb856dc646c240a68416be2",
    ),
    ("TR", 29, 5): (
        "427c2e4ea21949e35e21d5dc078e124e87bf1c4c1937a3bafc005bbd7246446b",
        "dbe5c5eb5c5c0445abf7dc8e3b4d87767f5732a39a00817e53a53b2e37c8d441",
    ),
    ("TR", 29, 29): (
        "1e797bb1e6a52cb5550323b9c6d5a29fe5f8086c9b7210be2fddf54fba2fa7fe",
        "cb968be735b2ca64555dada647ade8a03be230419abe1074f39f9d1ce4a8b967",
    ),
    ("TR", 64, 2): (
        "4edb70e5deba6083ba3ad89680ada208bf0b9214e4b9b32e14fcaf8851ec97bd",
        "0ad80939962e598b63365a63d6c13d7a9b04ab1b5343a50aadc7c49824506e4d",
    ),
    ("TR", 64, 5): (
        "70c77a40373bdc65b534823032843d9b7185332c255d4955b125dfe4169084d2",
        "a6b51e85e14e60d6e371072053601c449f8382caa8c94c9b92b6326d1ba6ae5c",
    ),
    ("TR", 64, 64): (
        "5a59aa85719afb0a89aaf980babdde124bcee153c190ae3d1a167082ef254239",
        "46a27cb9b11f000895207fd4637f3d1978c231378df715319348d23d135b29a1",
    ),
    ("NC", 6, 2): (
        "2e8d1821b3701f0635e9a4a41d77a7ec46f85f4a48c03a24af57d398dd7f248d",
        "24e0b4fdde311aab16add9ceb0e43564304d55bcec438483c1826ab2e636efac",
    ),
    ("NC", 6, 5): (
        "0313273e841d841b578813bb721de01920f8e427c6c4609e15ac8e1de6a52214",
        "5e230546d80e51595d6c3ce4d0f2835606d9de407d74eac55ad263859dfd1409",
    ),
    ("NC", 6, 6): (
        "540bea2ddcd35549bfcdfbd8a39b720aa7b8f14081ef91a3d6ad5b7d31a12260",
        "e6aeccce183023ffe07f7aef8dbda114e67e223f7af1876a42cc607fda98084f",
    ),
    ("NC", 17, 2): (
        "074dc341a087c90e5e85eed9836b71a9679f26b3d50d84615b3eed4b68dafd09",
        "35cedbea6e2d1144d2ecab03e81122db20440564c8a6c295c1d279a5334ef0b8",
    ),
    ("NC", 17, 5): (
        "1000cefdddb9cce251b13ca2798358c196e56ee787f797040593d7b6c3aaf6a2",
        "5b94a4b1445b2e0cf4de0ca57da109e25e1814855cff36096c000813503723d4",
    ),
    ("NC", 17, 17): (
        "991b02a6363a9eccd2f3bdb404abc9c85f087b812cc5b5ee191c4a422a456ad4",
        "ae8bc51c5ebe5cb0be5b505b851bff3f0f488752e5039e7c7ed5f3827eb40e2c",
    ),
    ("NC", 29, 2): (
        "01de68b3ac2852f6af020077a184a479678ae0865b1379bf8d74baacae651b3e",
        "57bcb5be2acc7d2e1490a0c024f62b87b947ca84716bdac4c181c0f24b814d38",
    ),
    ("NC", 29, 5): (
        "ca989b60ace1062ed6006f2156a7531dee6c5ab710c63c0a5edc9c654125c1df",
        "e1407c4d6119df86bf1f7129d4746bcfc04dab2078c7dd999c95584e8add1bc6",
    ),
    ("NC", 29, 29): (
        "dfbfecc9c89aa90509e2ab0d74bc81e41b711e4b8797323d8f23180d35952c0b",
        "1e3bbb761c9cabf9106d146c820afb28f34ffd17b38712a2b5ff198b44e79e26",
    ),
    ("NC", 64, 2): (
        "11344aa0fcd8e64a55e4900686d4e6998054696ba03c9cd8294335269bb0dc72",
        "0b6287cf149bbd7300d9a004fc7c224bfef2440a0ac831c057e490717d3bc91c",
    ),
    ("NC", 64, 5): (
        "67b8ac89c2daef17f7c203afda1dfc44616866d3f26783037df241549d6fb4d6",
        "d537bacf4a7bfe83f35d03a3275e21078e6de4d795e13598b87f5a8fa5eb4fec",
    ),
    ("NC", 64, 64): (
        "4a23d43b978c27302d9f78a811c8059e6df95aa98095f4a60707f6c6184beb17",
        "6177127bfd2b83fc4a991fc7ccb2f5aec37ba5e8df15928731084d7b88ec8f32",
    ),
}


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("mode,nodes,z", sorted(TRACE_DIGESTS))
def test_trace_text_is_pinned(mode, nodes, z):
    trace = simulate(mode, nodes, z, fixed_periods(mode, nodes, z))
    assert (_sha(trace_to_csv_text(trace)), _sha(render_trace(trace))) == TRACE_DIGESTS[mode, nodes, z]


# sha256 of repr([rec.stored for rec in trace.slots]) for each TRACE_DIGESTS
# case, taken while SlotRecord still built its stored snapshot eagerly
STORED_DIGESTS = {
    ("NC", 6, 2): "cc6254f5b5e4c6ea343887e045fe874f99b29d2d65a591fc267f769ba187f52c",
    ("NC", 6, 5): "68133e28c0020e512b21dd8e35c48cd796cd17a97d550877eb6b4ff1267bc993",
    ("NC", 6, 6): "caadbc822ed47bd2beb99d2f0339d4639bc494bb52800747b9eff9c41360c5dc",
    ("NC", 17, 2): "9a6c3635e24c362aa7d9b34cc31e359f6e98a2240c8fc0367106d10a53c0e4a1",
    ("NC", 17, 5): "09ca20ec3bd745afb50a74ac06ad955d7102f2fa9e79d89b40962e1e6aa07b3b",
    ("NC", 17, 17): "2e31da765629d520d1a7934332ec1f2cf158a8c1c346cd886522eaf41426f0cb",
    ("NC", 29, 2): "bacddd5c0ac945269eacd0f83c6ef47e5c20e73ef66174e9692739716712fbad",
    ("NC", 29, 5): "12ca1b647e6c0bf67c076a1cb338bedc304d6aea0c7b2c8767b1ba736da2ffa0",
    ("NC", 29, 29): "18cafe56742b4df738a4845a760b03d955c3e25593190969bfeb482571c2162a",
    ("NC", 64, 2): "3f8d69de4eccd5b725b11fa2029e35a6484892982dfb3b96e79097585455028d",
    ("NC", 64, 5): "bc2009d26525cdccbe717a99618926d4a993b3e86c7ef4d3a3b1d5c2a1144239",
    ("NC", 64, 64): "9c5bb9ac64918a240e8eba839e3c83dcf1e8178b59cbaaa13e8c196d184fdfee",
    ("TR", 6, 2): "217c854de217455ccd82eb2f5be3b93e326ae850977b2fdf7fb273b1484cac34",
    ("TR", 6, 5): "fd69e58b4771fbb4c46c5b1f23d0b675e37c4014f0668edf10abad6aebef561c",
    ("TR", 6, 6): "fd3b14476d2545ed6efe6b44335417a3f9eb4169a79473315e9d303ef0ddcc34",
    ("TR", 17, 2): "771c181aa471aef6d6c0607c1c66a20fe5749e1a1f070bbef8725a4956c47bc9",
    ("TR", 17, 5): "75af01a6f086bdaa5a219ae74914bec4448538220a5cbef33b9530498d870398",
    ("TR", 17, 17): "d709b140f33c3982ecfb446c02d8d40d1e68a0c850a228ee3f1641c4ed033c50",
    ("TR", 29, 2): "a5f8df606f41f420b2590f6a1b3e97297fdb4ad1e3085d3309f32e83f8fa1631",
    ("TR", 29, 5): "bb5e8f9b736e02aa4bc304e176b97d8ea922556f3985ed8b6225de42f2cf5304",
    ("TR", 29, 29): "3cc63da77da3ca2ce3c3aecfc91a58f16e52b7b17fe08dd5c37e067f9292b9fc",
    ("TR", 64, 2): "896301ccf72ab5c4d7e4b351b48c1b2ccd2d0da6faf4aa40168848eb3a2a4f12",
    ("TR", 64, 5): "be701a8f32cf68f806c990ae4d2dbbde8eee506075901e88145850036cc70fbe",
    ("TR", 64, 64): "1fcda82b559407a5e0da6da76d1a07843f059edbf88f32287ff71c6c242c00d4",
}


@pytest.mark.parametrize("mode,nodes,z", sorted(STORED_DIGESTS))
def test_stored_snapshots_are_pinned(mode, nodes, z):
    trace = simulate(mode, nodes, z, fixed_periods(mode, nodes, z))
    assert _sha(repr([rec.stored for rec in trace.slots])) == STORED_DIGESTS[mode, nodes, z]


# sha256 of (repr(list(trace.injections.items())), repr(trace.deliveries)) for
# each TRACE_DIGESTS case, taken while the engine built them eagerly
PACKET_DIGESTS = {
    ("NC", 6, 2): (
        "4f6677fda25acb96f2bf564b10d64706d0cdeb4e85d2cf89d0d5feecaa40fd1f",
        "fd28208a375549d70e237f6d72aebdb5fff0acf6ded2ab9a75c5ea7ffa4af56b",
    ),
    ("NC", 6, 5): (
        "23cfb1ee72b74e228868d91e0cd87c5959b1c027f806419598f8ff4704de71c4",
        "7fceab9b0d3b8bb51dfdb8bd488ff59589922474387e09d983e4b63745f4720d",
    ),
    ("NC", 6, 6): (
        "f3c161a21903f4634c34bce2f8753105e4a5155097c1a246ba2bc5509bbfd1cf",
        "8fb213a55949b58bd86dfd811202e64fa6e9e6cecdaef1eac113f29ed2aa47dc",
    ),
    ("NC", 17, 2): (
        "993ae1911b2185945ec875fd52ea68f62c0ebacb4b341ba3cfe7f1020bcfd999",
        "76660fc571bc39c6b2455fcd139ad5023454ea21b94cdb2def2fbdabfff121f8",
    ),
    ("NC", 17, 5): (
        "680bb097b693976667b9ef513e4d4a8f952854535d5c5d370295b89f0fb8757d",
        "f12ada25c4072f2f6dd934c555cf4a32aeedf9827be46174ab67052bfa969c81",
    ),
    ("NC", 17, 17): (
        "2512417baea18c932f5dc6cec859a8c7ec44fd89591fc34b5618ee793d6a3dce",
        "e3b28a45d8d8c1728adab063aa61177cf004d0562083a072b423a93a21881113",
    ),
    ("NC", 29, 2): (
        "208bf03fae0b174b677b0e39a43e9873313810072500b6e8e4879370332fffc8",
        "f0765394f6eecf812609fc197f9aeaa9ed461d4428ab3049d22fcc49ed8e2b8e",
    ),
    ("NC", 29, 5): (
        "62eedc758c126c6bee950c3d01359c8b77fda35c561c01c649d2361404b8ecfd",
        "0ddc8b5ef4b934792cc1ecab24760317b451a94fb0bb578fc4c4fee6b8680d4d",
    ),
    ("NC", 29, 29): (
        "fff17dc152b98637ab5afef382a3a41a16dccc6f4a78d8fc2c4f0d12d0cb6199",
        "a67fc5278903ea1109123fc6753dab62e90d33b4b096cfb6fc3242e377b9bf30",
    ),
    ("NC", 64, 2): (
        "5869ce2c86803c07c6e3b6b3bdf0bd1c7534c1a3660fa4335407b8186e9c1335",
        "3689a62ea1cfbb2479a6c24e2c6d8563c18bd94a1d8d8be138d083988c8c5c44",
    ),
    ("NC", 64, 5): (
        "50d3b4450708872e02a66106677179535605fa85bfb5f4a5ff34c318616a9231",
        "e5952cbc3e20a2cda14c7277bc472fa902a2e361c8c821681edea9ffedc49448",
    ),
    ("NC", 64, 64): (
        "b91722aed265eb320a448ccfca79e6744999f58ba322c8706ae432e1e39f5697",
        "1abb846c6fbd4a65311525f6b925364541de6f0c73958e902102eb85db05cf4c",
    ),
    ("TR", 6, 2): (
        "79556600e233029e432bd7f30cfff5b5fa455aee3a9ccd19fb914be32afe7eeb",
        "1169bdb6675c191be289e9c2d9f8df9c6ddf9dce1cd267fbb4188bb3cc01752a",
    ),
    ("TR", 6, 5): (
        "4afcf4f297438b214bf0d8263042c4610ab008eeeee2d0dac0d5ef77835b281b",
        "5a598039af18a9ff991e4fb0589d8948f51002ebd02dbcc908dfc33d76355d1c",
    ),
    ("TR", 6, 6): (
        "76f879aff0d3e219501d66c16b9b883c5080bb96adfda7fc451e315d6d3b3090",
        "eb62321847531484bd62ac98c4e51f8dbd72b6aa356b7f9fa93aebdb1a8a7bf5",
    ),
    ("TR", 17, 2): (
        "afec6f6b6c9a39517f09b46b8bce615c1565db0b508fc968f27db6f9c15db0df",
        "9b9a1437f155ddfd790224bd02b16c0381b0ca249edf72f53a98bfca68a4594a",
    ),
    ("TR", 17, 5): (
        "923e493f932696a539f409c4757e02b332dea4509899f032aad1c54b93de7cdf",
        "948007a0b8849eb98bc72587d0777dc629bf31587ab01c5fa442cb76ac114e8f",
    ),
    ("TR", 17, 17): (
        "0ba78c552d3fdb89ac98c2092805c8e74d93d296508937c1e74bb2689abc7eb0",
        "df54f514ec479b02769323827442d1f46d319ca8467118162e20954a2779a24c",
    ),
    ("TR", 29, 2): (
        "b22b11f36c6af391a3e566fd3a858868d25b63db41b92054b7c3bc2b76adcfef",
        "8dbef8fcb18a275a0a5934e38eb571a220e7302533351b52eea72f81899dde80",
    ),
    ("TR", 29, 5): (
        "1756b86472f8083d79739839ef6b5d81e0ffd1ca1152edd8c9ebeb1742ec5ed5",
        "259b70ad5c062ed9618f39e5680e40f8d9e1ca071c10846c9f1c897fa143824e",
    ),
    ("TR", 29, 29): (
        "6e801af85484605faf32f6b305e8b2dd4cea9ac274a4a21b3d1fb7a9f4ec85f8",
        "47df4280cf5a1247e9b0a7bb3bf70168c9e79455e2f300c3cf3f3461bffcade0",
    ),
    ("TR", 64, 2): (
        "45f7893f524b6fb786c82379cadc447514e11a83ff4132828033d963e1f81243",
        "7bdab419dfdf7a58b435be5e18fb2731619df507481615981f36fb2032f37eea",
    ),
    ("TR", 64, 5): (
        "e142b5804df9e9c34d931974cd8c736f9a84660bb51ac7ca20dc1eb7b83c53df",
        "b2e3caf3e6828334103ebc7b793c5edcff40b15990d1caa687f0ed0f2d5b2e77",
    ),
    ("TR", 64, 64): (
        "c5a5efff14f2d1be83641c802f99c7ab246260a1b5177e03b1b85930422d552d",
        "6315adbc6cbecb752abf8ef9128e037907413f5aee3c3dc8255524e5f1eef032",
    ),
}


@pytest.mark.parametrize("mode,nodes,z", sorted(PACKET_DIGESTS))
def test_injections_and_deliveries_are_pinned(mode, nodes, z):
    trace = simulate(mode, nodes, z, fixed_periods(mode, nodes, z))
    got = (_sha(repr(list(trace.injections.items()))), _sha(repr(trace.deliveries)))
    assert got == PACKET_DIGESTS[mode, nodes, z]


class TestPacketsOnDemand:
    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(st.integers(3, 64), st.sampled_from((FORWARD, REVERSE)), st.integers(1, 500))
    def test_packet_round_trips_through_its_bit_index(self, nodes, direction, seq):
        pid = PacketId(direction, seq, 1 if direction == FORWARD else nodes)
        trace = SimTrace(ScheduleConfig(nodes, 2, MODE_NC))
        assert trace._packet(pid.alphabet_index) == pid

    @pytest.mark.parametrize("run", [run_tr_sim, run_nc_sim])
    def test_measuring_builds_nothing(self, run):
        trace = run(6, 3)
        measured_delivery_rate(trace)
        measured_latency(trace, FORWARD)
        measured_latency(trace, REVERSE)
        assert not {"injections", "deliveries", "slots", "schedule"} & set(vars(trace))
        assert trace.deliveries is trace.deliveries
        assert {"injections", "deliveries"} <= set(vars(trace))

    def test_table4_builds_no_packets_or_deliveries(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a PacketId or Delivery was built")

        monkeypatch.setattr(packetsim, "PacketId", refuse)
        monkeypatch.setattr(packetsim, "Delivery", refuse)
        assert len(harness.table4_rows(dict(harness.DEFAULTS))) == 64
        with pytest.raises(AssertionError):
            run_nc_sim(4, 2).deliveries


class TestSlotRecordsOnDemand:
    def test_sweep_builds_no_slot_records(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a SlotRecord was built")

        monkeypatch.setattr(packetsim, "SlotRecord", refuse)
        rows = harness.table4_rows(dict(harness.DEFAULTS))
        assert len(rows) == 64
        with pytest.raises(AssertionError):
            run_nc_sim(4, 2).slots

    def test_records_are_built_once(self):
        trace = run_tr_sim(5, 3)
        first = trace.slots
        assert trace.slots is first
        assert len(first) == trace.total_slots

    def test_trace_text_builds_no_slot_records(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a SlotRecord was built")

        monkeypatch.setattr(packetsim, "SlotRecord", refuse)
        for (mode, nodes, z), digests in TRACE_DIGESTS.items():
            trace = simulate(mode, nodes, z, fixed_periods(mode, nodes, z))
            assert (_sha(trace_to_csv_text(trace)), _sha(render_trace(trace))) == digests
        with pytest.raises(AssertionError):
            run_nc_sim(4, 2).slots


class TestNoSlotLog:
    def test_a_default_run_peaks_under_a_megabyte(self):
        # measuring keeps O(N + periods) state; logging every slot's sends and stores peaked at 4.09 MB
        tracemalloc.start()
        try:
            run_nc_sim(128, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("run,ran", [(run_tr_sim, (400_000, 2)), (run_nc_sim, (200_000, 1))], ids=["TR", "NC"])
    def test_a_period_of_empty_slots_peaks_under_64_kb(self, run, ran):
        # N 5, Z 200,000: at most 8 of the period's slots have a sender. Planning and
        # visiting every slot peaked at 57.8 MB (TR); a list of every slot's direction,
        # built for the period's length and the plan, at 6.4 MB (TR) and 1.6 MB (NC)
        tracemalloc.start()
        try:
            trace = run(5, 200_000, num_periods=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (trace.total_slots, len(trace._delivered)) == ran
        assert peak < 64_000, peak

    @pytest.mark.parametrize("mode", [MODE_TR, MODE_NC])
    def test_reading_a_trace_runs_no_wrapped_function(self, monkeypatch, mode):
        # perfbench wraps these four; a replay that called them would add to a traced run's counts
        def read(trace):
            stored = [rec.stored for rec in trace.slots]
            return trace.slots, stored, trace.deliveries, render_trace(trace), trace_to_csv_text(trace)

        want, trace = read(simulate(mode, 7, 3)), simulate(mode, 7, 3)

        def refuse(*args, **kwargs):
            raise AssertionError("a wrapped function was called")

        for name in ("run_tr_sim", "run_nc_sim", "tr_schedule", "nc_schedule"):
            monkeypatch.setattr(packetsim, name, refuse)
        assert read(trace) == want


class TestSlotRecordProperties:
    @settings(
        max_examples=12,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(sim_cases())
    def test_records_agree_with_the_trace(self, case):
        mode, nodes, z = case
        if mode == MODE_TR:
            trace, schedule = run_tr_sim(nodes, z), tr_schedule(nodes, z)
        else:
            trace, schedule = run_nc_sim(nodes, z), nc_schedule(nodes, z)
        broadcasters = {n for direction, on_air in schedule.sets if direction == BROADCAST for n in on_air}

        def valid(label):
            return isinstance(label, frozenset) and label and all(p in trace.injections for p in label)

        assert len(trace.slots) == trace.total_slots
        assert [d for rec in trace.slots for d in rec.deliveries] == trace.deliveries
        for rec in trace.slots:
            assert set(rec.transmissions) <= set(rec.scheduled)
            assert all(valid(label) for label in rec.transmissions.values())
            assert all(valid(label) and n in broadcasters for n, label in rec.xors)
            assert all(valid(label) for _, _, label in rec.stored)

    @settings(
        max_examples=15,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(sim_cases(), st.data())
    def test_a_replayed_range_matches_the_full_trace(self, case, data):
        # the log keeps only what each slot changed, so any range is replayed from slot 1
        trace = simulate(*case)
        last = data.draw(st.integers(1, trace.total_slots), label="last")
        first = data.draw(st.integers(1, last), label="first")
        rows = render_trace(trace, first, last).splitlines()[3:]
        full_rows = render_trace(trace).splitlines()[3:]
        assert [row.split() for row in rows] == [row.split() for row in full_rows[first - 1 : last]]
