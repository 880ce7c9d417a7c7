"""The benchmark's workloads, driven through the program's public functions.

Each workload builds its inputs from a freshly imported ``multihop``
(``setup``), runs one timed iteration (``run``), counts the work it did
(``work``) and checks every output it produced (``check``). The program
only ever sees the generated configs and radios; the seed stays here.

Why these two: ``table4_alt`` is the validated-scale path users run,
dominated by the packet simulator and repeating each distinct sim four
times; ``capacity_scan`` is all capacity, radio and schedule work at the
100-node stress size with no packet simulation. A third workload, long
sims with every slot rendered and written as CSV, was dropped: on the host
this was tuned on, runs had to be about 55 s long to give steady figures,
and three workloads of that length do not fit the time the benchmark is
given in total.
"""

import hashlib
import importlib
import json
import os
import random
import sys
import types
from dataclasses import replace
from fractions import Fraction

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
LAYERS = ("layout", "radio", "schedule", "capacity", "packetsim", "harness")
DEFAULT_SEED = 1
REL_TOL = 1e-9


def fresh_program(src):
    """Import multihop from ``src`` the way a new ``multihop`` process does.

    Every multihop module imported earlier is dropped first, so no state
    the program keeps in its modules or functions carries over from one
    iteration to the next.
    """
    for name in [n for n in sys.modules if n == "multihop" or n.startswith("multihop.")]:
        del sys.modules[name]
    if sys.path[:1] != [src]:
        sys.path.insert(0, src)
    package = importlib.import_module("multihop")
    found = os.path.dirname(os.path.abspath(package.__file__))
    if found != os.path.join(src, "multihop"):
        raise ImportError("multihop imported from %s, expected %s" % (found, src))
    return types.SimpleNamespace(**{m: importlib.import_module("multihop." + m) for m in LAYERS})


def load_reference(name):
    path = os.path.join(REFERENCE_DIR, name + ".json")
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def close(got, want, rel=REL_TOL):
    return abs(got - want) <= rel * abs(want)


class Verdict:
    """Outputs attempted and failed in one iteration, with the first reasons."""

    MAX_MESSAGES = 5

    def __init__(self, attempted):
        self.attempted = attempted
        self.failed = 0
        self.messages = []

    def fail(self, reason, outputs=1):
        self.failed += outputs
        if len(self.messages) < self.MAX_MESSAGES:
            self.messages.append(reason)


class Table4Alt:
    """``multihop table4 --alt`` to memory: the published grid, default and alternate radio."""

    name = "table4_alt"
    work_name, work_unit = "rows_per_s", "rows"
    # the alternate radio of ``multihop table4 --alt``
    alt_radio = {"tx_gain": 2.0, "rx_gain": 2.0, "noise_figure_db": 3.0}
    csv_header = (
        "streams,mode,hops,z,forward_bottleneck_bps,reverse_bottleneck_bps,"
        "capacity_bps,optimum_flag,sim_delivery_rate,sim_latency_fwd,sim_latency_rev"
    )
    # 2 radios x 2 stream counts x 2 modes x hops 2..5 x Z 2..5
    outputs_per_iteration = 128

    def __init__(self, stored=True):
        # without the stored reference only setup and run are usable
        self.reference = load_reference(self.name) if stored else None

    def setup(self, mh, seed):
        # the grid is the published one, so the seed is not used
        cfg = dict(mh.harness.DEFAULTS)
        alt = replace(mh.harness.radio_from_config(cfg), **self.alt_radio)
        return {"cfg": cfg, "radios": (None, alt)}

    def run(self, mh, inputs, iteration):
        out = []
        for radio in inputs["radios"]:
            rows = mh.harness.table4_rows(inputs["cfg"], radio=radio)
            report = mh.harness.render_table4(mh.harness.compare_table4(rows))
            out.append((rows, report, mh.harness.rows_to_csv_text(rows)))
        return out

    def work(self, outputs):
        return sum(len(rows) for rows, _, _ in outputs)

    def check(self, mh, inputs, outputs):
        verdict = Verdict(self.outputs_per_iteration)
        got = sum(len(rows) for rows, _, _ in outputs)
        if got != self.outputs_per_iteration:
            verdict.fail("expected %d rows, got %d" % (self.outputs_per_iteration, got), max(0, self.outputs_per_iteration - got))
        for (rows, report, csv_text), ref in zip(outputs, self.reference["radios"]):
            try:
                mh.harness.check_consistency(rows)
            except mh.harness.EngineMismatchError as exc:
                verdict.fail("check_consistency: %s" % exc, len(rows))
                continue
            if sha256(report) != ref["report_sha256"]:
                verdict.fail("rendered table4 report differs from the stored digest", len(rows))
                continue
            lines = csv_text.split("\n")
            if lines[0] != self.csv_header or lines[-1] != "" or len(lines) != len(rows) + 2:
                verdict.fail("CSV header or row count wrong", len(rows))
                continue
            for row, want, line in zip(rows, ref["rows"], lines[1:]):
                reason = self._row_problem(row, want, line)
                if reason:
                    verdict.fail(reason)
        return verdict

    @staticmethod
    def _row_problem(row, want, line):
        key = [row.streams, row.mode, row.hops, row.z]
        if key != want["key"]:
            return "row %r where the reference has %r" % (key, want["key"])
        nodes = row.hops + 1
        num, den = oracle.expected_rate(row.mode, row.z)
        if row.sim_delivery_rate != Fraction(num, den):
            return "row %r: delivery rate %s, want %d/%d" % (key, row.sim_delivery_rate, num, den)
        if (row.sim_latency_fwd, row.sim_latency_rev) != oracle.expected_latencies(row.mode, nodes, row.z):
            return "row %r: latencies %r" % (key, (row.sim_latency_fwd, row.sim_latency_rev))
        for field in ("forward_bottleneck_bps", "reverse_bottleneck_bps", "capacity_bps"):
            if not close(getattr(row, field), want[field]):
                return "row %r: %s %r, reference %r" % (key, field, getattr(row, field), want[field])
        if row.optimum_flag != want["optimum_flag"]:
            return "row %r: optimum flag %r" % (key, row.optimum_flag)
        cells = line.split(",")
        try:
            parsed = (
                [int(cells[0]), cells[1], int(cells[2]), int(cells[3])]
                + [float(c) for c in cells[4:7]]
                + [cells[7] == "1", Fraction(cells[8]), int(cells[9]), int(cells[10])]
            ) if len(cells) == 11 else None
        except (ValueError, ZeroDivisionError):
            parsed = None
        if parsed != key + [
            row.forward_bottleneck_bps, row.reverse_bottleneck_bps, row.capacity_bps,
            row.optimum_flag, row.sim_delivery_rate, row.sim_latency_fwd, row.sim_latency_rev,
        ]:
            return "row %r: CSV line %r does not read back as the row" % (key, line)
        return None


def draw_radios(seed, count):
    """RadioConfig field values within valid ranges, drawn from ``seed``."""
    rng = random.Random(seed)
    radios = []
    for _ in range(count):
        radios.append(
            {
                "tx_power_w": 10.0 ** rng.uniform(-2.0, 0.0),
                "tx_gain": 1.0,
                "rx_gain": 1.0,
                "frequency_hz": 2e9,
                "path_loss_exponent": rng.uniform(2.5, 5.0),
                "noise_figure_db": rng.uniform(2.0, 8.0),
                "temperature_k": 300.0,
                "bandwidth_hz": 1e6,
            }
        )
    return radios


class CapacityScan:
    """``stream_capacity`` over both modes and Z 2..16 on two 100-node rows.

    The seed draws ``radios`` radios; iteration i scans radio i mod radios.
    """

    name = "capacity_scan"
    work_name, work_unit = "capacity_cells_per_s", "cells"

    def __init__(self, nodes=100, z_values=tuple(range(2, 17)), radios=4, stored=True):
        self.nodes = nodes
        self.z_values = tuple(z_values)
        self.radios = radios
        self.modes = ("TR", "NC")
        self.outputs_per_iteration = len(self.modes) * len(self.z_values)
        self._expected = {}  # (radio values, mode, z) -> oracle result, the benchmark's own memo
        is_default = (nodes, self.z_values, radios) == (100, tuple(range(2, 17)), 4)
        self.reference = load_reference(self.name) if stored and is_default else None

    def setup(self, mh, seed):
        layout = mh.layout.LayoutConfig(nodes_per_stream=self.nodes, num_streams=2)
        geometry = mh.layout.build_layout(layout)
        routes = {s: mh.layout.stream_route(geometry, s, 1, self.nodes) for s in (1, 2)}
        params = draw_radios(seed, self.radios)
        radios = [mh.radio.RadioConfig(**p) for p in params]
        return {"seed": seed, "layout": layout, "geometry": geometry, "routes": routes, "params": params, "radios": radios}

    def run(self, mh, inputs, iteration):
        index = iteration % self.radios
        radio = inputs["radios"][index]
        cells = []
        for mode in self.modes:
            for z in self.z_values:
                reports = mh.capacity.stream_capacity(inputs["geometry"], inputs["routes"], radio, mode, z)
                cells.append((index, mode, z, reports))
        return cells

    def work(self, outputs):
        return len(outputs)

    def _oracle(self, inputs, index, mode, z):
        params = inputs["params"][index]
        key = (tuple(sorted(params.items())), mode, z)
        if key not in self._expected:
            layout = inputs["layout"]
            self._expected[key] = oracle.stream_capacities(
                params, mode, z, self.nodes, 2, layout.hop_length_m, layout.row_separation_m
            )
        return self._expected[key]

    def check(self, mh, inputs, outputs):
        verdict = Verdict(self.outputs_per_iteration)
        if len(outputs) != self.outputs_per_iteration:
            verdict.fail("expected %d cells, got %d" % (self.outputs_per_iteration, len(outputs)), max(0, self.outputs_per_iteration - len(outputs)))
        stored = None
        if self.reference is not None and inputs["seed"] == self.reference["seed"]:
            stored = {(c["radio"], c["mode"], c["z"]): c["streams"] for c in self.reference["cells"]}
        for index, mode, z, reports in outputs:
            reason = self._cell_problem(mh, inputs, index, mode, z, reports, stored)
            if reason:
                verdict.fail("radio %d %s z=%d: %s" % (index, mode, z, reason))
        return verdict

    def _cell_problem(self, mh, inputs, index, mode, z, reports, stored):
        if sorted(reports) != [1, 2]:
            return "reports for streams %r" % (sorted(reports),)
        expected = self._oracle(inputs, index, mode, z)
        for stream, rep in sorted(reports.items()):
            got = (rep.forward_bottleneck_bps, rep.reverse_bottleneck_bps, rep.capacity_bps)
            if not all(0.0 < v < float("inf") for v in got[:2]):
                return "stream %d bottlenecks %r not finite and positive" % (stream, got[:2])
            if rep.capacity_bps != mh.capacity.capacity_per_slot(mode, z, got[0], got[1]):
                return "stream %d capacity %r is not capacity_per_slot of its bottlenecks" % (stream, rep.capacity_bps)
            if not all(close(g, w) for g, w in zip(got, expected[stream])):
                return "stream %d %r, oracle %r" % (stream, got, expected[stream])
            if stored is not None and not all(close(g, w) for g, w in zip(got, stored[(index, mode, z)][str(stream)])):
                return "stream %d %r, stored reference %r" % (stream, got, stored[(index, mode, z)][str(stream)])
        return None


WORKLOADS = {w.name: w for w in (Table4Alt, CapacityScan)}
