"""Spans around the program's layer boundaries, recorded from outside.

``install`` replaces each layer's public functions, at the module
attribute its callers look up, with a wrapper that records one span:
name, start, end and parent. Spans stay in memory in flat arrays until
the iteration ends. A span's self time is its duration minus the time its
direct child spans cover. Counts come from the objects the wrapped
functions return, read after the iteration so they add no time inside it.
"""

import gzip
from array import array
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name, keep returned values). A span name's first
# part is its layer; each function is wrapped at every name its callers use.
WRAPS = (
    ("layout", "build_layout", "layout", False),
    ("layout", "stream_route", "layout", False),
    ("harness", "build_layout", "layout", False),
    ("harness", "stream_route", "layout", False),
    ("capacity", "received_power", "radio", False),
    ("capacity", "noise_power", "radio", False),
    ("capacity", "sinr", "radio", False),
    ("capacity", "shannon_rate", "radio", False),
    ("capacity", "tr_schedule", "schedule", False),
    ("capacity", "nc_schedule", "schedule", False),
    ("packetsim", "tr_schedule", "schedule", False),
    ("packetsim", "nc_schedule", "schedule", False),
    ("capacity", "stream_capacity", "capacity", True),
    ("harness", "stream_capacity", "capacity", True),
    ("capacity", "reception_events", "capacity.reception_events", False),
    ("capacity", "event_sinr", "capacity.event_sinr", False),
    ("harness", "capacity_per_slot", "capacity.per_slot", False),
    ("packetsim", "run_tr_sim", "packetsim.sim", True),
    ("packetsim", "run_nc_sim", "packetsim.sim", True),
    ("harness", "run_tr_sim", "packetsim.sim", True),
    ("harness", "run_nc_sim", "packetsim.sim", True),
    ("packetsim", "measured_delivery_rate", "packetsim.measure", False),
    ("packetsim", "measured_latency", "packetsim.measure", False),
    ("harness", "measured_delivery_rate", "packetsim.measure", False),
    ("harness", "measured_latency", "packetsim.measure", False),
    ("harness", "table4_rows", "harness.sweep", False),
    ("harness", "run_sweep", "harness.sweep", True),
    ("harness", "check_consistency", "harness.check", False),
    ("harness", "rows_to_csv_text", "harness.csv", True),
    ("harness", "compare_table4", "harness.compare", False),
    ("harness", "render_table4", "harness.compare", False),
)

LAYERS = ("layout", "radio", "schedule", "capacity", "packetsim", "harness")


class Tracer:
    """Spans of one traced iteration, kept in memory."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.returned = {}  # span name -> values returned by kept spans

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name, keep):
        nid = self._id(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack
        returned = self.returned.setdefault(name, []) if keep else None

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if returned is not None:
                returned.append(result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name):
        """A span around benchmark code, such as the whole setup or iteration."""
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            yield
        finally:
            self.end[idx] = perf_counter()
            self.start[idx] = t0
            self._stack.pop()

    def install(self, mh):
        for module, attr, name, keep in WRAPS:
            mod = getattr(mh, module)
            setattr(mod, attr, self.wrap(getattr(mod, attr), name, keep))

    def self_times(self):
        """{span name: (calls, total self seconds)}."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {}
        for i in range(n):
            name = self.names[self.name[i]]
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + (self.end[i] - self.start[i]) - child[i])
        return out

    def write(self, path):
        """Every span as CSV: id, name, parent id, start and end in ns from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,name,parent,start_ns,end_ns\n")
            for i in range(len(self.start)):
                fh.write(
                    "%d,%s,%d,%d,%d\n"
                    % (i, self.names[self.name[i]], self.parent[i],
                       round((self.start[i] - t0) * 1e9), round((self.end[i] - t0) * 1e9))
                )


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Per-layer metrics of one traced iteration, by BENCHMARK.json name."""
    spans = tracer.self_times()

    def self_s(prefix):
        return sum(t for name, (_, t) in spans.items() if name == prefix or name.startswith(prefix + "."))

    def calls(name):
        return spans.get(name, (0, 0.0))[0]

    m = {}
    for layer in LAYERS:
        m[layer + ".self_s"] = self_s(layer)
    for name in ("layout", "radio", "schedule", "capacity"):
        m[name + ".calls"] = calls(name)
    for name in ("capacity.reception_events", "capacity.event_sinr", "packetsim.measure",
                 "harness.sweep", "harness.check", "harness.csv", "harness.compare"):
        m[name + ".self_s"] = self_s(name)

    got = tracer.returned
    events = [ev for reports in got.get("capacity", ()) for rep in reports.values() for ev in rep.events]
    m["capacity.events"] = len(events)
    m["capacity.power_evals"] = sum(1 + len(ev.interferers) for ev, _, _ in events)

    traces = got.get("packetsim.sim", ())
    m["packetsim.calls"] = calls("packetsim.sim")
    distinct = {(t.mode, t.nodes, t.z, t.total_slots // t.period) for t in traces}
    m["packetsim.distinct_ratio"] = _ratio(len(distinct), len(traces))
    m["packetsim.slots"] = sum(t.total_slots for t in traces)
    sent = sum(len(rec.transmissions) for t in traces for rec in t.slots)
    scheduled = sum(len(rec.scheduled) for t in traces for rec in t.slots)
    m["packetsim.transmissions"] = sent
    m["packetsim.tx_ratio"] = _ratio(sent, scheduled)
    m["packetsim.xors"] = sum(len(rec.xors) for t in traces for rec in t.slots)
    m["packetsim.deliveries"] = sum(len(t.deliveries) for t in traces)
    m["packetsim.dropped"] = sum(t.dropped for t in traces)
    m["harness.rows"] = sum(len(rows) for rows in got.get("harness.sweep", ()))
    m["harness.csv_bytes"] = sum(len(text.encode("utf-8")) for text in got.get("harness.csv", ()))
    m["bench.self_s"] = self_s("bench")
    m["trace.wall_s"] = sum(t for _, t in spans.values())
    return m

