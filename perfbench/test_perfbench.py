"""Tests of the benchmark itself: tiny smoke runs, failure detection, statistics.

Run from the root of a checkout::

    python3 -m pytest perfbench
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import report  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

pytestmark = pytest.mark.filterwarnings("ignore:layout has:UserWarning")


def tiny_scan():
    return workloads.CapacityScan(nodes=8, z_values=(2, 3, 4), radios=2)


def run_once(workload, seed=1, iteration=0):
    mh = workloads.fresh_program(SRC)
    inputs = workload.setup(mh, seed)
    return mh, inputs, workload.run(mh, inputs, iteration)


def test_table4_alt_passes_its_checks():
    w = workloads.Table4Alt()
    mh, inputs, outputs = run_once(w)
    verdict = w.check(mh, inputs, outputs)
    assert (verdict.attempted, verdict.failed) == (128, 0), verdict.messages
    assert w.work(outputs) == 128


def test_capacity_scan_tiny_passes_its_checks():
    w = tiny_scan()
    for iteration in (0, 1):
        mh, inputs, outputs = run_once(w, seed=7, iteration=iteration)
        verdict = w.check(mh, inputs, outputs)
        assert (verdict.attempted, verdict.failed) == (6, 0), verdict.messages
        assert {index for index, _, _, _ in outputs} == {iteration}


def test_capacity_scan_default_seed_matches_stored_reference():
    w = workloads.CapacityScan()
    assert w.reference is not None
    mh, inputs, outputs = run_once(w, seed=workloads.DEFAULT_SEED, iteration=3)
    verdict = w.check(mh, inputs, outputs)
    assert (verdict.attempted, verdict.failed) == (30, 0), verdict.messages


@pytest.mark.parametrize("fields", [("capacity_bps",), ("forward_bottleneck_bps", "reverse_bottleneck_bps", "capacity_bps")])
def test_capacity_scaled_by_one_part_per_million_fails(fields):
    w = tiny_scan()
    mh, inputs, outputs = run_once(w)
    index, mode, z, reports = outputs[2]
    scaled = dataclasses.replace(reports[2], **{f: getattr(reports[2], f) * (1 + 1e-6) for f in fields})
    outputs[2] = (index, mode, z, {**reports, 2: scaled})
    verdict = w.check(mh, inputs, outputs)
    assert verdict.failed == 1, verdict.messages


def test_table4_row_capacity_scaled_fails():
    w = workloads.Table4Alt()
    mh, inputs, outputs = run_once(w)
    rows, text, csv_text = outputs[1]
    rows = list(rows)
    rows[5] = dataclasses.replace(rows[5], capacity_bps=rows[5].capacity_bps * (1 + 1e-6))
    outputs[1] = (rows, text, csv_text)
    assert w.check(mh, inputs, outputs).failed >= 1


@pytest.mark.parametrize("part", [1, 2])
def test_flipped_table4_report_or_csv_byte_fails(part):
    w = workloads.Table4Alt()
    mh, inputs, outputs = run_once(w)
    texts = list(outputs[0])
    i = len(texts[part]) // 2
    texts[part] = texts[part][:i] + chr(ord(texts[part][i]) ^ 1) + texts[part][i + 1:]
    outputs[0] = tuple(texts)
    assert w.check(mh, inputs, outputs).failed >= 1


def test_traced_iteration_keeps_outputs_and_accounts_for_time():
    w = workloads.Table4Alt()
    mh = workloads.fresh_program(SRC)
    tracer = Tracer()
    tracer.install(mh)
    with tracer.span("bench.setup"):
        inputs = w.setup(mh, 1)
    with tracer.span("bench.work"):
        outputs = w.run(mh, inputs, 0)
    assert w.check(mh, inputs, outputs).failed == 0
    m = layer_metrics(tracer)
    layers = sum(m[layer + ".self_s"] for layer in ("layout", "radio", "schedule", "capacity", "packetsim", "harness"))
    assert layers + m["bench.self_s"] == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert m["capacity.calls"] == 128 and m["packetsim.calls"] == 128 and m["harness.rows"] == 128
    assert m["packetsim.distinct_ratio"] == 0.25
    assert m["packetsim.dropped"] == 0


def test_tail_and_quartiles():
    assert report.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0, 10)
    assert report.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert report.quartiles([5.0]) == (5.0, 5.0, 5.0)
    assert report.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])[1] == 3.0


def _record(workload, wall):
    return {"workload": workload, "metrics": {"wall_s": {"value": wall, "unit": "s", "n": 1, "samples": [wall]}}}


def test_compare_marks_worse_and_unresolved(tmp_path):
    bench = {"workloads": [{"name": "a"}, {"name": "b"}], "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.1}]}
    base, new = tmp_path / "base.jsonl", tmp_path / "new.jsonl"
    base.write_text("".join(json.dumps(_record(w, v)) + "\n" for w in "ab" for v in (1.0, 1.01, 0.99, 1.0)))
    new.write_text(
        "".join(json.dumps(_record("a", v)) + "\n" for v in (1.3, 1.31, 1.29, 1.3))
        + "".join(json.dumps(_record("b", v)) + "\n" for v in (0.5, 1.5, 1.0, 2.0))
    )
    rows = {r[0]: r for r in report.compare(str(base), str(new), bench)}
    assert rows["a"][-1] == "worse" and rows["a"][-2] == pytest.approx(1.3)
    assert rows["b"][-1] == "unresolved"
    assert "unresolved" in report.render_compare(list(rows.values()))


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_every_listed_metric(trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "table4_alt", "--seed", "3", "--seconds", "0.2", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 128
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = json.load(fh)["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table4_alt", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
