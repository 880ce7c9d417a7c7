"""Command-line front end.

Verbs: ``layout`` prints the node grid, ``capacity`` reports one (mode, hops,
Z) cell with its reception events, ``simulate`` runs the packet engine and can
print the slot-by-slot trace, ``sweep`` emits the experiment CSV, ``table4``
compares a full sweep against the published reference table.

Exit codes: 0 on success, 1 for invalid configuration or usage, exhausted
memory or a closed standard output, 2 when the two engines disagree.
"""

import argparse
import os
import sys
import warnings
from dataclasses import fields, replace

from multihop.capacity import stream_capacity
from multihop.harness import (
    DEFAULTS,
    TABLE4_GRID,
    ConfigError,
    EngineMismatchError,
    compare_table4,
    layout_from_config,
    load_config,
    parse_value,
    radio_from_config,
    render_table4,
    rows_to_csv_text,
    run_sweep,
    spec_from_config,
    stream_routes,
    table4_rows,
    write_csv,
)
from multihop.layout import LayoutConfig, build_layout
from multihop.packetsim import (
    FORWARD,
    REVERSE,
    SteadyStateError,
    measured_delivery_rate,
    measured_latency,
    render_trace,
    run_nc_sim,
    run_tr_sim,
    trace_to_csv_text,
)
from multihop.schedule import MODE_NC, MODE_TR

# fitted in-range alternate: gains 2, noise figure 3 dB (see table4 --alt)
ALT_TX_GAIN = 2.0
ALT_RX_GAIN = 2.0
ALT_NOISE_FIGURE_DB = 3.0


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved here, so remap
    def error(self, message):
        raise ConfigError(message)


# a config key's flag is the key with dashes, unless renamed here
_FLAG_ALIASES = {"num_streams": "streams"}

_SCALAR_KEYS = [key for key, default in DEFAULTS.items() if not isinstance(default, tuple)]

# the config keys each verb reads, and so offers as flags
VERB_KEYS = {
    "layout": [f.name for f in fields(LayoutConfig)],
    "capacity": _SCALAR_KEYS,  # layout, radio and tr_phase
    "simulate": ["nodes_per_stream"],  # the default --hops
    "sweep": list(DEFAULTS),
    "table4": [key for key in _SCALAR_KEYS if key not in TABLE4_GRID],
}


def _verb_parser(sub, verb, func, help):
    """A verb's subparser with --config and a flag for each key the verb reads."""
    p = sub.add_parser(verb, help=help)
    p.set_defaults(func=func)
    p.add_argument("--config", help="flat key = value config file")
    for key in VERB_KEYS[verb]:
        flag = "--" + _FLAG_ALIASES.get(key, key).replace("_", "-")
        p.add_argument(flag, dest=key, help="comma separated" if isinstance(DEFAULTS[key], tuple) else None)
    return p


def _effective_config(args):
    cfg = load_config(args.config) if args.config else dict(DEFAULTS)
    for key in VERB_KEYS[args.command]:
        text = getattr(args, key)
        if text is not None:
            cfg[key] = parse_value(key, text)
    return cfg


def _hops(args, cfg):
    """--hops, by default one fewer than a row's nodes; a ``capacity`` route must fit in the rows."""
    rows, hops = cfg["nodes_per_stream"], args.hops
    LayoutConfig(nodes_per_stream=rows)  # rejects rows below 3 for simulate too, which builds no layout
    if hops is not None and args.command == "capacity" and not 2 <= hops < rows:
        raise ValueError("--hops must be between 2 and %d for %d-node rows, got %d" % (rows - 1, rows, hops))
    if hops is not None and hops < 2:
        raise ValueError("--hops must be at least 2, got %d" % hops)
    return rows - 1 if hops is None else hops


def cmd_layout(args):
    cfg = _effective_config(args)
    geometry = build_layout(layout_from_config(cfg))
    lc = geometry.config
    print(
        "layout: %d stream(s) x %d nodes, hop %.1f m, row separation %.1f m"
        % (lc.num_streams, lc.nodes_per_stream, lc.hop_length_m, lc.row_separation_m)
    )
    for stream, node in geometry.nodes():
        x, y = geometry.position(stream, node)
        print("  stream %d node %d: (%10.1f, %10.1f)" % (stream, node, x, y))
    print("distance matrix (m):")
    labels = ["s%dn%d" % sn for sn in geometry.nodes()]
    print("        " + " ".join("%8s" % l for l in labels))
    matrix = geometry.distance_matrix
    for i, row_label in enumerate(labels):
        print("%8s" % row_label + " " + " ".join("%8.1f" % matrix[i, j] for j in range(len(labels))))
    return 0


def cmd_capacity(args):
    cfg = _effective_config(args)
    layout = layout_from_config(cfg)
    hops = _hops(args, cfg)  # before build_layout, so a rejected call prints no size warning
    geometry = build_layout(layout)
    routes = stream_routes(geometry, hops + 1)
    radio = radio_from_config(cfg)
    reports = stream_capacity(geometry, routes, radio, args.mode, args.z, tr_phase=cfg["tr_phase"])
    for stream in sorted(reports):
        rep = reports[stream]
        print(
            "stream %d: mode=%s hops=%d z=%d forward=%.1f bps reverse=%.1f bps capacity=%.1f bps"
            % (
                stream, rep.mode, hops, rep.z,
                rep.forward_bottleneck_bps, rep.reverse_bottleneck_bps, rep.capacity_bps,
            )
        )
        print("  slot rx<-tx dir     interferers          SINR        rate_bps")
        for ev, s, r in rep.events:
            ints = ",".join("s%dn%d" % p for p in sorted(ev.interferers)) or "-"
            print(
                "  %4d %2d<-%-2d %-7s %-20s %9.4f %15.1f"
                % (ev.slot, ev.receiver, ev.transmitter, ev.direction, ints, s, r)
            )
    return 0


def cmd_simulate(args):
    if args.trace_csv == "-":
        raise ValueError("--trace-csv must name a file, not '-': only sweep writes CSV to stdout")
    cfg = _effective_config(args)
    nodes = _hops(args, cfg) + 1
    if args.periods is not None and args.periods < 1:
        raise ValueError("--periods must be at least 1, got %d" % args.periods)
    run = run_tr_sim if args.mode == MODE_TR else run_nc_sim
    trace = run(nodes, args.z, num_periods=args.periods)
    print(
        "%s nodes=%d z=%d: delivery rate %s per slot, latency forward %d, reverse %d"
        % (
            args.mode, nodes, args.z,
            measured_delivery_rate(trace),
            measured_latency(trace, FORWARD),
            measured_latency(trace, REVERSE),
        )
    )
    if args.trace:
        print(render_trace(trace), end="")
    if args.trace_csv:
        with open(args.trace_csv, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(trace_to_csv_text(trace))
        print("trace CSV written to %s" % args.trace_csv)
    return 0


def cmd_sweep(args):
    cfg = _effective_config(args)
    spec = spec_from_config(cfg)
    rows = run_sweep(spec)
    if args.output and args.output != "-":
        write_csv(rows, args.output)
        print("wrote %d rows to %s" % (len(rows), args.output))
    else:
        print(rows_to_csv_text(rows), end="")
    return 0


def cmd_table4(args):
    if args.output == "-":
        raise ValueError("--output must name a file, not '-': only sweep writes CSV to stdout")
    cfg = _effective_config(args)
    rows = table4_rows(cfg)
    print(render_table4(compare_table4(rows)), end="")
    if args.alt:
        radio = replace(
            radio_from_config(cfg),
            tx_gain=ALT_TX_GAIN,
            rx_gain=ALT_RX_GAIN,
            noise_figure_db=ALT_NOISE_FIGURE_DB,
        )
        alt_rows = table4_rows(cfg, radio=radio)
        print()
        print("with alternate in-range parameters (gains %.0f, noise figure %.0f dB):" % (ALT_TX_GAIN, ALT_NOISE_FIGURE_DB))
        print(render_table4(compare_table4(alt_rows)), end="")
    if args.output:
        write_csv(rows, args.output)
        print()
        print("wrote %d rows to %s" % (len(rows), args.output))
    return 0


def build_parser():
    parser = _Parser(prog="multihop", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    _verb_parser(sub, "layout", cmd_layout, "print node positions and distances")

    p = _verb_parser(sub, "capacity", cmd_capacity, "single-configuration capacity report")
    p.add_argument("--mode", required=True, choices=(MODE_TR, MODE_NC))
    p.add_argument("--z", required=True, type=int)
    p.add_argument("--hops", type=int, default=None)

    p = _verb_parser(sub, "simulate", cmd_simulate, "packet-level simulation of one stream")
    p.add_argument("--mode", required=True, choices=(MODE_TR, MODE_NC))
    p.add_argument("--z", required=True, type=int)
    p.add_argument("--hops", type=int, default=None)
    p.add_argument("--periods", type=int, default=None,
                   help="run exactly this many schedule periods (default: until a steady state is observed)")
    p.add_argument("--trace", action="store_true", help="print the slot-by-slot table")
    p.add_argument("--trace-csv", default=None, help="also write the trace as CSV")

    p = _verb_parser(sub, "sweep", cmd_sweep, "full experiment sweep to CSV")
    p.add_argument("--output", default="-", help="CSV path, '-' for stdout")

    p = _verb_parser(sub, "table4", cmd_table4, "compare a reference-grid sweep against published values")
    p.add_argument("--alt", action="store_true", help="also run the fitted alternate parameters")
    p.add_argument("--output", default=None, help="also write the sweep rows as CSV")
    return parser


def main(argv=None):
    parser = build_parser()
    with warnings.catch_warnings():  # a warning is one "warning: ..." line, not a source location
        warnings.showwarning = lambda message, *_: print("warning: %s" % message, file=sys.stderr)
        try:
            args = parser.parse_args(argv)
            return args.func(args)
        except BrokenPipeError:  # stdout closed early, as under `| head`: exit quietly
            return 1
        except EngineMismatchError as exc:
            print("engine mismatch: %s" % exc, file=sys.stderr)
            return 2
        except (ConfigError, ValueError, OSError, SteadyStateError, MemoryError) as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 1


def console_main():
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:  # the Python docs' SIGPIPE recipe: exit's own flush must not fail too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    console_main()
