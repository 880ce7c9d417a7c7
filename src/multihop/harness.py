"""Experiment harness: config files, sweeps, CSV output, reference comparison.

Configs are flat ``key = value`` text. A sweep walks (mode, hops, Z), runs the
analytical capacity engine and the packet engine on each cell, and flags the
capacity-maximizing Z per group. The two engines are independent by design, so
every sweep cross-checks them: the packet-level delivery rate must land exactly
on 1/Z (store-and-forward) or 2/Z (coded relaying), its latencies must equal
the schedules' closed forms, and the capacity column must match the formula
recomputed from the bottleneck columns.

``compare_table4`` lines the sweep up against a published reference table of
optimum periods and capacities for 6-node rows, 2 to 5 hops, one and two
streams. Two of that table's cells are self-contradicted by the narrative
around it; they are carried with notes rather than trusted.
"""

import io
import math
from dataclasses import asdict, dataclass, fields, replace
from fractions import Fraction

from multihop.capacity import capacity_per_slot, stream_capacity
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
from multihop.radio import RadioConfig
from multihop.schedule import FORWARD, MODE_NC, MODE_TR, REVERSE, TR_PHASES


class ConfigError(ValueError):
    """Bad config file, bad key, or bad CLI value."""


class EngineMismatchError(RuntimeError):
    """Analytical and packet engines disagree; a bug, not a result."""


# Every config key, its type and its default; the CLI flags are derived from it.
DEFAULTS = {
    **asdict(LayoutConfig()),
    **asdict(RadioConfig()),
    "tr_phase": "same",
    "modes": (MODE_TR, MODE_NC),
    "z_values": (2, 3, 4, 5),
    # hop_counts must fit inside nodes_per_stream-1 with the defaults above
    "hop_counts": (2, 3, 4),
}

CAPACITY_REL_TOL = 1e-9  # check_consistency: capacity column vs the formula over its bottlenecks


def _parse_scalar(key, text, default):
    text = text.strip()
    if not text:
        raise ConfigError("empty value for %r" % key)
    try:
        return type(default)(text)
    except ValueError:
        raise ConfigError("bad value %r for %r" % (text, key)) from None


def parse_value(key, text):
    """Parse one config value, a comma-separated list where the default is a tuple."""
    default = DEFAULTS[key]
    if isinstance(default, tuple):
        return tuple([_parse_scalar(key, p, default[0]) for p in text.split(",")])
    value = _parse_scalar(key, text, default)
    if key == "tr_phase" and value not in TR_PHASES:
        raise ConfigError("tr_phase must be one of %r, got %r" % (TR_PHASES, value))
    return value


def parse_config_text(text):
    """Parse ``key = value`` lines over the defaults. Unknown or repeated keys are errors."""
    values = dict(DEFAULTS)
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected key = value, got %r" % (lineno, raw.strip()))
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in DEFAULTS:
            raise ConfigError("line %d: unknown config key %r" % (lineno, key))
        if key in seen:
            raise ConfigError("line %d: config key %r already set on line %d" % (lineno, key, seen[key]))
        seen[key] = lineno
        values[key] = parse_value(key, value)
    return values


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # drops a leading byte order mark
            text = fh.read()
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc)) from None
    return parse_config_text(text)


def _from_config(cls, cfg):
    return cls(**{f.name: cfg[f.name] for f in fields(cls)})


def layout_from_config(cfg):
    return _from_config(LayoutConfig, cfg)


def radio_from_config(cfg):
    return _from_config(RadioConfig, cfg)


@dataclass(frozen=True)
class ExperimentSpec:
    """One sweep: which grid to walk and under what layout and radio."""

    layout: LayoutConfig
    radio: RadioConfig
    modes: tuple
    z_values: tuple
    hop_counts: tuple
    tr_phase: str = "same"

    def __post_init__(self):
        for name in ("modes", "z_values", "hop_counts"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ConfigError("%s has duplicate entries: %r" % (name, values))
        if not self.modes or any(m not in (MODE_TR, MODE_NC) for m in self.modes):
            raise ConfigError("modes must be a non-empty subset of {TR, NC}, got %r" % (self.modes,))
        if not self.hop_counts:
            raise ConfigError("hop_counts must be non-empty")
        for h in self.hop_counts:
            if not 2 <= h <= self.layout.nodes_per_stream - 1:
                raise ConfigError(
                    "hop count %r outside [2, %d]" % (h, self.layout.nodes_per_stream - 1)
                )
        if not self.z_values:
            raise ConfigError("z_values must be non-empty")
        top = max(self.hop_counts) + 1
        for z in self.z_values:
            if not 2 <= z <= top:
                raise ConfigError("z=%r outside [2, %d] for these hop counts" % (z, top))
        if self.tr_phase not in TR_PHASES:
            raise ConfigError("tr_phase must be one of %r, got %r" % (TR_PHASES, self.tr_phase))


def spec_from_config(cfg):
    return ExperimentSpec(
        layout=layout_from_config(cfg),
        radio=radio_from_config(cfg),
        modes=tuple(cfg["modes"]),
        z_values=tuple(cfg["z_values"]),
        hop_counts=tuple(cfg["hop_counts"]),
        tr_phase=cfg["tr_phase"],
    )


@dataclass(frozen=True, slots=True)
class ResultRow:
    streams: int
    mode: str
    hops: int
    z: int
    forward_bottleneck_bps: float
    reverse_bottleneck_bps: float
    capacity_bps: float
    optimum_flag: bool
    sim_delivery_rate: Fraction
    sim_latency_fwd: int
    sim_latency_rev: int


CSV_COLUMNS = tuple([f.name for f in fields(ResultRow)])


def stream_routes(geometry, nodes):
    """Route over positions 1..nodes on every stream of the layout, by stream."""
    return {s: stream_route(geometry, s, 1, nodes) for s in range(1, geometry.config.num_streams + 1)}


def run_sweep(spec):
    """One ResultRow per (mode, hops, z), optimum flagged per (mode, hops)."""
    geometry = build_layout(spec.layout)
    rows = []
    for mode in spec.modes:
        for hops in spec.hop_counts:
            nodes = hops + 1
            routes = stream_routes(geometry, nodes)
            group = []
            for z in spec.z_values:
                report = stream_capacity(geometry, routes, spec.radio, mode, z, tr_phase=spec.tr_phase)[1]
                trace = run_tr_sim(nodes, z) if mode == MODE_TR else run_nc_sim(nodes, z)
                group.append(
                    ResultRow(
                        streams=spec.layout.num_streams,
                        mode=mode,
                        hops=hops,
                        z=z,
                        forward_bottleneck_bps=report.forward_bottleneck_bps,
                        reverse_bottleneck_bps=report.reverse_bottleneck_bps,
                        capacity_bps=report.capacity_bps,
                        optimum_flag=False,
                        sim_delivery_rate=measured_delivery_rate(trace),
                        sim_latency_fwd=measured_latency(trace, FORWARD),
                        sim_latency_rev=measured_latency(trace, REVERSE),
                    )
                )
            best = max(sorted(group, key=lambda r: r.z), key=lambda r: r.capacity_bps)  # lowest Z wins a tie
            group[group.index(best)] = replace(best, optimum_flag=True)
            rows.extend(group)
    check_consistency(rows)
    return rows


def check_consistency(rows):
    """Tie the two engines together; any mismatch is a defect."""
    for row in rows:
        nodes = row.hops + 1
        if row.mode == MODE_TR:
            want = (Fraction(1, row.z), tr_latency(nodes, row.z), tr_latency(nodes, row.z))
        else:
            want = (Fraction(2, row.z), nc_latency_forward(nodes), nc_latency_reverse(nodes, row.z))
        got = (row.sim_delivery_rate, row.sim_latency_fwd, row.sim_latency_rev)
        if got != want:
            raise EngineMismatchError(
                "packet sim delivered %s per slot with latencies %d and %d, schedule implies %s, %d and %d (row %r)"
                % (*got, *want, row)
            )
        want_cap = capacity_per_slot(
            row.mode, row.z, row.forward_bottleneck_bps, row.reverse_bottleneck_bps
        )
        # written so that NaN on either side fails the check
        if not abs(row.capacity_bps - want_cap) <= CAPACITY_REL_TOL * abs(want_cap):
            raise EngineMismatchError(
                "capacity %r inconsistent with bottlenecks (want %r, row %r)"
                % (row.capacity_bps, want_cap, row)
            )


def _cell(value):
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rows_to_csv_text(rows):
    out = io.StringIO()
    out.write(",".join(CSV_COLUMNS) + "\n")
    for row in rows:
        out.write(",".join(_cell(getattr(row, col)) for col in CSV_COLUMNS) + "\n")
    return out.getvalue()


def write_csv(rows, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(rows_to_csv_text(rows))


# Published reference: 6-node rows, capacity in Mbps at the published optimum
# period, for one stream (OS) and two streams (TS). Two cells carry notes: the
# reference's own narrative says the one-stream TR optimum at 2 hops is Z=2
# while its table prints 3, and calls the two-stream TR 2-hop optimum an
# exception without printing the value it found.
PUBLISHED_OPTIMUM_Z = {
    (1, "TR", 2): 3, (1, "TR", 3): 3, (1, "TR", 4): 4, (1, "TR", 5): 4,
    (1, "NC", 2): 4, (1, "NC", 3): 4, (1, "NC", 4): 4, (1, "NC", 5): 4,
    (2, "TR", 2): 3, (2, "TR", 3): 3, (2, "TR", 4): 3, (2, "TR", 5): 3,
    (2, "NC", 2): 3, (2, "NC", 3): 3, (2, "NC", 4): 3, (2, "NC", 5): 3,
}

PUBLISHED_CAPACITY_MBPS = {
    (1, "TR", 2): 2.064, (1, "TR", 3): 2.064, (1, "TR", 4): 1.547, (1, "TR", 5): 1.322,
    (1, "NC", 2): 3.095, (1, "NC", 3): 3.095, (1, "NC", 4): 2.645, (1, "NC", 5): 2.645,
    (2, "TR", 2): 1.749, (2, "TR", 3): 1.742, (2, "TR", 4): 1.390, (2, "TR", 5): 1.390,
    (2, "NC", 2): 3.234, (2, "NC", 3): 2.654, (2, "NC", 4): 2.608, (2, "NC", 5): 2.598,
}

PUBLISHED_IMPROVEMENT_PCT = {
    (1, 2): 50.0, (1, 3): 50.0, (1, 4): 71.0, (1, 5): 100.0,
    (2, 2): 85.0, (2, 3): 52.0, (2, 4): 88.0, (2, 5): 87.0,
}

CELL_NOTES = {
    (1, "TR", 2): "reference narrative says Z=2, its table prints 3",
    (2, "TR", 2): "reference calls this cell an exception without a value; unverifiable",
}

@dataclass(frozen=True)
class Table4Cell:
    streams: int
    mode: str
    hops: int
    published_z: int
    computed_z: int
    published_mbps: float
    computed_mbps: float  # at the published Z
    delta_pct: float
    note: str = ""

    @property
    def z_match(self):
        return self.published_z == self.computed_z


@dataclass(frozen=True)
class ImprovementCell:
    streams: int
    hops: int
    published_pct: float
    at_published_z_pct: float
    at_computed_z_pct: float


@dataclass(frozen=True)
class Table4Comparison:
    cells: tuple
    improvements: tuple

    def z_matches(self, streams=None):
        cells = [c for c in self.cells if streams is None or c.streams == streams]
        return sum(1 for c in cells if c.z_match), len(cells)

    def group_z_matches(self):
        """Per (mode, hops) group: True when both stream columns match."""
        out = {}
        for c in self.cells:
            out[(c.mode, c.hops)] = out.get((c.mode, c.hops), True) and c.z_match
        return out

    def capacity_within(self, pct):
        return sum(1 for c in self.cells if abs(c.delta_pct) <= pct), len(self.cells)


def compare_table4(rows):
    """Compare sweep rows against the published reference, cell by cell.

    One pass over the rows finds each reference key's row at the published Z
    and its group's one flagged optimum row. Raises ValueError, per key in
    reference order, for "sweep is missing row (s, m, h, z)", then for
    "expected one optimum row for (s, m, h)".
    """
    at_pub, best = {}, {}
    for row in rows:
        key = (row.streams, row.mode, row.hops)
        if row.z == PUBLISHED_OPTIMUM_Z.get(key):
            at_pub[key] = row
        if row.optimum_flag:
            best[key] = None if key in best else row  # None: flagged twice
    cells = []
    for key, pub_z in PUBLISHED_OPTIMUM_Z.items():
        if key not in at_pub:
            raise ValueError("sweep is missing row %s" % ((*key, pub_z),))
        if best.get(key) is None:
            raise ValueError("expected one optimum row for %s" % (key,))
        pub_c, computed = PUBLISHED_CAPACITY_MBPS[key], at_pub[key].capacity_bps / 1e6
        cells.append(Table4Cell(
            *key, published_z=pub_z, computed_z=best[key].z, published_mbps=pub_c, computed_mbps=computed,
            delta_pct=100.0 * (computed - pub_c) / pub_c, note=CELL_NOTES.get(key, ""),
        ))

    def gain(pick, streams, hops):
        tr, nc = pick[(streams, MODE_TR, hops)].capacity_bps, pick[(streams, MODE_NC, hops)].capacity_bps
        if tr == 0:  # a radio too weak for any TR rate: no finite gain
            return math.inf if nc > 0 else math.nan
        return 100.0 * (nc - tr) / tr

    improvements = tuple([
        ImprovementCell(streams, hops, pct, gain(at_pub, streams, hops), gain(best, streams, hops))
        for (streams, hops), pct in PUBLISHED_IMPROVEMENT_PCT.items()
    ])
    return Table4Comparison(cells=tuple(cells), improvements=improvements)


def render_table4(comparison):
    """Fixed-width text report of the comparison."""
    header = "%-3s %-4s %-4s | %-5s %-5s %-5s | %9s %9s %8s | %s" % (
        "str", "mode", "hops", "Zpub", "Zcal", "match", "Cpub_Mb", "Ccal_Mb", "delta%", "note",
    )
    lines = [header, "-" * len(header)]
    for c in comparison.cells:
        lines.append(
            "%-3d %-4s %-4d | %-5d %-5d %-5s | %9.3f %9.3f %+8.1f | %s"
            % (
                c.streams, c.mode, c.hops, c.published_z, c.computed_z,
                "yes" if c.z_match else "NO", c.published_mbps, c.computed_mbps,
                c.delta_pct, c.note,
            )
        )
    lines.append("")
    lines.append("NC over TR improvement, percent:")
    lines.append(
        "%-3s %-4s | %9s %14s %14s" % ("str", "hops", "published", "at published Z", "at computed Z")
    )
    for imp in comparison.improvements:
        lines.append(
            "%-3d %-4d | %9.1f %14.1f %14.1f"
            % (imp.streams, imp.hops, imp.published_pct, imp.at_published_z_pct, imp.at_computed_z_pct)
        )
    lines.append("")
    m1, t1 = comparison.z_matches(streams=1)
    m2, t2 = comparison.z_matches(streams=2)
    groups = comparison.group_z_matches()
    within, total = comparison.capacity_within(25.0)
    lines.append("optimum-Z matches: one stream %d/%d, two streams %d/%d" % (m1, t1, m2, t2))
    lines.append(
        "(mode x hops) groups matching both stream columns: %d/%d"
        % (sum(1 for v in groups.values() if v), len(groups))
    )
    lines.append("capacity cells within 25%%: %d/%d" % (within, total))
    return "\n".join(lines) + "\n"


# The published grid. table4_spec sets these keys over any config, so the
# table4 verb offers no flag for them; num_streams lists the table's columns.
TABLE4_GRID = {
    "nodes_per_stream": 6, "num_streams": (1, 2), "modes": (MODE_TR, MODE_NC),
    "z_values": (2, 3, 4, 5), "hop_counts": (2, 3, 4, 5),
}


def table4_spec(cfg=None, streams=1, radio=None):
    """Sweep spec for the published grid at one stream count."""
    cfg = {**(DEFAULTS if cfg is None else cfg), **TABLE4_GRID, "num_streams": streams}
    spec = spec_from_config(cfg)
    if radio is not None:
        spec = replace(spec, radio=radio)
    return spec


def table4_rows(cfg=None, radio=None):
    """Both stream counts of the published grid, concatenated."""
    rows = []
    for streams in TABLE4_GRID["num_streams"]:
        rows.extend(run_sweep(table4_spec(cfg, streams=streams, radio=radio)))
    return rows
