"""Summary statistics of a run, and the comparison of two result files."""

import json
import statistics


def quartiles(values):
    """(first quartile, median, third quartile), as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values, beyond=10):
    """The highest sample that has at least ``beyond`` samples above it.

    Returns (value, percentile, samples above it). With too few samples the
    maximum stands in, at percentile 100 with nothing above it.
    """
    ordered = sorted(values)
    rank = len(ordered) - beyond
    if rank < 1:
        return ordered[-1], 100.0, 0
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def load_records(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _values(records, metric):
    """One value per run; a single run contributes its samples when its value is their median."""
    runs = [r["metrics"][metric] for r in records if metric in r["metrics"]]
    if len(runs) == 1 and runs[0].get("samples"):
        return runs[0]["samples"]
    return [m["value"] for m in runs]


def compare(base_path, new_path, benchmark):
    """Rows of (workload, metric, unit, base stats, new stats, ratio, verdict)."""
    bounds = {m["name"]: m for m in benchmark["end_to_end"]}
    base, new = load_records(base_path), load_records(new_path)
    rows = []
    for workload in [w["name"] for w in benchmark["workloads"]]:
        b_runs = [r for r in base if r["workload"] == workload]
        n_runs = [r for r in new if r["workload"] == workload]
        names = [m for r in b_runs for m in r["metrics"]]
        for metric in dict.fromkeys(names):
            b_vals, n_vals = _values(b_runs, metric), _values(n_runs, metric)
            if not b_vals or not n_vals:
                continue
            b_q, n_q = quartiles(b_vals), quartiles(n_vals)
            ratio = n_q[1] / b_q[1] if b_q[1] else float("nan")
            spec = bounds.get(metric)
            if spec is None:
                verdict = "no bound"
            elif max(spread(b_vals), spread(n_vals)) > spec["bound"]:
                verdict = "unresolved"
            else:
                worse = ratio - 1.0 if spec["better"] == "lower" else 1.0 - ratio
                verdict = "worse" if worse > spec["bound"] else "within bound"
            unit = b_runs[0]["metrics"][metric]["unit"]
            rows.append((workload, metric, unit, b_q, len(b_vals), n_q, len(n_vals), ratio, verdict))
    return rows


def render_compare(rows):
    lines = [
        "%-14s %-26s %-6s | %-34s | %-34s | %-22s | %s"
        % ("workload", "metric", "unit", "base median [q1, q3] (n)", "new median [q1, q3] (n)", "ratio new/base", "verdict")
    ]
    for workload, metric, unit, bq, bn, nq, nn, ratio, verdict in rows:
        lines.append(
            "%-14s %-26s %-6s | %10.5g [%.5g, %.5g] (%d) | %10.5g [%.5g, %.5g] (%d) | %.4f (base %.5g) | %s"
            % (workload, metric, unit, bq[1], bq[0], bq[2], bn, nq[1], nq[0], nq[2], nn, ratio, bq[1], verdict)
        )
    return "\n".join(lines) + "\n"
