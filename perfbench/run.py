"""Benchmark of the multihop simulator: end-to-end timings or a traced run.

Run from the root of a checkout (the directory holding ``src/multihop``)::

    python3 perfbench/run.py --workload table4_alt --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload capacity_scan --trace 1 --out results.jsonl
    python3 perfbench/run.py --compare base.jsonl new.jsonl

With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer ones; the last line of standard output is
always one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--out`` appends the full run record (samples, metadata, warnings) to a
JSON-lines file, and ``--compare`` prints one row per workload and metric
from two such files. Traced runs write their spans under ``perfbench_out/``.

Every timed iteration imports multihop afresh and rebuilds its inputs
first, untimed, so nothing the program caches survives from the previous
iteration, just as nothing survives between two ``multihop`` commands.
"""

import argparse
import contextlib
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
if sys.path[:1] != [HERE]:
    sys.path.insert(0, HERE)

import report  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, fresh_program  # noqa: E402

BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
SETUP_PROBES = 9  # fresh interpreters timed per run for setup_s
OUT_DIR = "perfbench_out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append the full run record to this JSON-lines file")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"), help="compare two result files")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.compare and not args.workload:
        p.error("--workload is required unless --compare is given")
    return args


def setup_probe(workload, seed, src):
    """In a fresh interpreter: seconds from before ``import multihop`` to built inputs."""
    with warnings.catch_warnings():
        # the parent records the same warnings from its own setups
        warnings.simplefilter("ignore")
        t0 = time.perf_counter()
        mh = fresh_program(src)
        workload.setup(mh, seed)
        return time.perf_counter() - t0


def probe_setup_in_child(name, seed, root):
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", name, "--seed", str(seed)],
        cwd=root, capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError("setup probe failed: %s" % proc.stderr.strip())
    return float(proc.stdout.strip().splitlines()[-1])


class Tally:
    """Outputs attempted and failed across a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add(self, verdict):
        self.attempted += verdict.attempted
        self.failed += verdict.failed
        self.messages.extend(verdict.messages[: max(0, 10 - len(self.messages))])

    def crash(self, workload, exc):
        self.attempted += workload.outputs_per_iteration
        self.failed += workload.outputs_per_iteration
        if len(self.messages) < 10:
            self.messages.append("".join(traceback.format_exception_only(type(exc), exc)).strip())


class Results:
    """Metric values of one run, with the sample count behind each."""

    def __init__(self):
        self.value, self.unit, self.count, self.samples, self.note = {}, {}, {}, {}, {}

    def add(self, name, value, unit, count, samples=None, note=""):
        """``samples`` is given only when ``value`` is their median."""
        self.value[name], self.unit[name], self.count[name], self.note[name] = value, unit, count, note
        if samples is not None:
            self.samples[name] = samples


def run_checked(workload, mh, inputs, iteration, tally, around=contextlib.nullcontext):
    """One iteration of work, timed inside ``around()``; outputs are checked after the clock stops."""
    gc.collect()
    try:
        t0 = time.perf_counter()
        with around():
            outputs = workload.run(mh, inputs, iteration)
        elapsed = time.perf_counter() - t0
        tally.add(workload.check(mh, inputs, outputs))
        return elapsed, workload.work(outputs)
    except Exception as exc:  # any exception is a failed iteration, recorded and counted
        tally.crash(workload, exc)
        return None, None


@contextlib.contextmanager
def traced_memory(peak):
    tracemalloc.start()
    try:
        yield
    finally:
        peak.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()


def peak_memory(workload, seed, src, tally):
    """tracemalloc peak over one iteration of its own, untimed."""
    mh = fresh_program(src)
    peak = []
    run_checked(workload, mh, workload.setup(mh, seed), 0, tally, lambda: traced_memory(peak))
    return peak[0]


def measure_end_to_end(workload, seed, seconds, src, root, tally, res):
    """Timed iterations for ``seconds``, with setup probes spread evenly through them.

    The host this was tuned on switches between two speeds about 1.7x
    apart, each held for seconds to minutes. A run's median falls between
    the two and moves with the share of time spent in each, while the 90th
    percentile sits in the slow state that every run reaches, so that is
    the bounded timing; the median, fastest and tail iterations are
    reported for reading.
    """
    res.add("peak_mem_mb", peak_memory(workload, seed, src, tally) / 1e6, "MB", 1)
    probes, walls, works = [], [], []
    start = time.perf_counter()
    iteration = 0
    while True:
        now = time.perf_counter() - start
        if len(probes) < SETUP_PROBES and now >= seconds * len(probes) / SETUP_PROBES:
            probes.append(probe_setup_in_child(workload.name, seed, root))
            continue
        mh = fresh_program(src)
        inputs = workload.setup(mh, seed)
        wall, work = run_checked(workload, mh, inputs, iteration, tally)
        if wall is not None:
            walls.append(wall)
            works.append(work)
        iteration += 1
        if time.perf_counter() - start >= seconds and len(probes) == SETUP_PROBES and iteration >= 2:
            break
    if len(walls) < 2:
        raise RuntimeError("fewer than two iterations succeeded")
    n = len(walls)
    res.add("setup_s", report.quartiles(probes)[1], "s", len(probes), probes,
            "median over fresh interpreters, import multihop to built inputs")
    res.add("wall_p90_s", statistics.quantiles(walls, n=10, method="inclusive")[-1], "s", n, note="90th percentile iteration")
    tail, pct, beyond = report.tail(walls)
    res.add("wall_s", report.quartiles(walls)[1], "s", n, walls, "median iteration")
    res.add("wall_tail_s", tail, "s", n, note="p%.1f, %d iterations beyond it" % (pct, beyond))
    res.add("wall_best_s", min(walls), "s", n, note="fastest iteration")
    res.add(workload.work_name, sum(works) / sum(walls), workload.work_unit + "/s", n,
            note="over all iterations, %d per iteration" % works[0])


def layer_unit(name):
    for suffix, unit in (("_s", "s"), ("_ratio", "ratio"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def measure_traced(workload, seed, seconds, src, root, tally, res):
    """Untraced and traced iterations in turn, each timed from setup to the end of work.

    Per-layer metrics come from one traced iteration, so that its layer self
    times and the benchmark's own remainder add up to its wall time exactly:
    the fastest, which the host disturbed least. The overhead compares it
    with the fastest untraced iteration of the same run.
    """
    from tracer import Tracer, layer_metrics

    untraced = []
    best = best_tracer = None
    deadline = time.perf_counter() + seconds
    iteration = 0
    while True:
        mh = fresh_program(src)
        t0 = time.perf_counter()
        inputs = workload.setup(mh, seed)
        setup = time.perf_counter() - t0
        wall, _ = run_checked(workload, mh, inputs, iteration, tally)
        if wall is not None:
            untraced.append(setup + wall)

        mh = fresh_program(src)
        tracer = Tracer()
        tracer.install(mh)
        with tracer.span("bench.setup"):
            inputs = workload.setup(mh, seed)
        wall, _ = run_checked(workload, mh, inputs, iteration, tally, lambda: tracer.span("bench.work"))
        if wall is not None:
            metrics = layer_metrics(tracer)
            if best is None or metrics["trace.wall_s"] < best["trace.wall_s"]:
                best, best_tracer = metrics, tracer
        del tracer
        iteration += 1
        if time.perf_counter() >= deadline:
            break
    if best is None or not untraced:
        raise RuntimeError("every iteration failed")
    n = iteration
    for name, value in best.items():
        res.add(name, value, layer_unit(name), n)
    res.add("trace.untraced_wall_s", min(untraced), "s", len(untraced), note="fastest untraced setup + iteration")
    res.add("trace.overhead_s", best["trace.wall_s"] - min(untraced), "s", n, note="trace.wall_s - trace.untraced_wall_s")
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    path = os.path.join(root, OUT_DIR, "%s-seed%d.spans.csv.gz" % (workload.name, seed))
    best_tracer.write(path)
    res.note["trace.wall_s"] = "fastest traced setup + iteration; its %d spans are in %s" % (
        len(best_tracer.start), os.path.relpath(path, root))
    res.note["bench.self_s"] = "layer self times sum to trace.wall_s minus this"


def git_state(root):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))

    def git(*cmd):
        proc = subprocess.run(["git", *cmd], cwd=root, env=env, capture_output=True, text=True, timeout=30, check=False)
        return proc.stdout.strip() if proc.returncode == 0 else None

    try:
        if git("rev-parse", "--show-toplevel") != root:
            return None, None
        return git("rev-parse", "HEAD"), bool(git("status", "--porcelain", "--untracked-files=no"))
    except (OSError, subprocess.TimeoutExpired):
        return None, None


def cpu_model():
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def metadata(root, args):
    import numpy

    sha, dirty = git_state(root)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
    }


def load_benchmark():
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as fh:
        return json.load(fh)


def run(args, root, src):
    benchmark = load_benchmark()
    workload = WORKLOADS[args.workload]()
    tally = Tally()
    res = Results()
    measure = measure_traced if args.trace else measure_end_to_end
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        measure(workload, args.seed, args.seconds, src, root, tally, res)
    res.add("failed_frac", tally.failed / max(1, tally.attempted), "1", tally.attempted, note="outputs failed / attempted")
    meta = metadata(root, args)
    seen = {}
    for w in caught:
        key = "%s: %s" % (w.category.__name__, w.message)
        seen[key] = seen.get(key, 0) + 1

    listed = [spec["name"] for spec in benchmark["per_layer" if args.trace else "end_to_end"]]
    for spec in benchmark["per_layer" if args.trace else "end_to_end"]:
        if res.unit[spec["name"]] != spec["unit"]:
            raise ValueError("%s measured in %s, BENCHMARK.json says %s" % (spec["name"], res.unit[spec["name"]], spec["unit"]))
    others = [name for name in res.value if name not in listed]

    print("# perfbench %s seed=%d seconds=%g trace=%d" % (args.workload, args.seed, args.seconds, args.trace))
    print("# meta " + json.dumps(meta, sort_keys=True))
    for key, count in sorted(seen.items()):
        print("# warning x%d (recorded, not a failure): %s" % (count, key))
    for msg in tally.messages:
        print("# FAILED: %s" % msg)
    print("%-32s %16s  %-8s %7s  %s" % ("metric", "value", "unit", "samples", "note"))
    for name in listed + others:
        if name == others[0]:
            print("# not in BENCHMARK.json, for reading only:")
        print("%-32s %16.6g  %-8s %7d  %s" % (name, res.value[name], res.unit[name], res.count[name], res.note[name]))

    if args.out:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "meta": meta,
            "warnings": seen,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "messages": tally.messages,
            "metrics": {
                name: {"value": res.value[name], "unit": res.unit[name], "n": res.count[name],
                       "samples": res.samples.get(name), "note": res.note[name]}
                for name in listed + others
            },
        }
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")

    result = {name: {"value": res.value[name], "unit": res.unit[name]} for name in listed}
    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": result}))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.compare:
        rows = report.compare(args.compare[0], args.compare[1], load_benchmark())
        print(report.render_compare(rows), end="")
        return 0
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "multihop", "__init__.py")):
        print("perfbench: no src/multihop under %s; run from the root of a multihop checkout" % root, file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(setup_probe(WORKLOADS[args.workload](), args.seed, src)))
        return 0
    return run(args, root, src)


if __name__ == "__main__":
    sys.exit(main())
