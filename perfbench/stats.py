"""Summaries and the A/B rule for perfbench result sets.

A result set holds, per workload, every run's metric values. The A/B
rule:

* runs are paired by index (the `ab` mode alternates which side runs
  first and gives both sides of a pair the same seed);
* a metric counts as a gain only when the child wins at least 9 of
  every 10 pairs (ties count for neither side) and the medians differ
  by more than the parent's interquartile range;
* a metric regresses when the child's median is worse than the
  parent's by more than the metric's bound (a share of the parent's
  median);
* when the parent's own spread (IQR / median) exceeds the bound, a
  metric that is neither a gain nor a clear win in every pair is
  reported as "unresolved", never as unchanged.
"""

import json
import statistics

MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(q1, med, q3):
    """Interquartile range as a share of the median (0 for a constant
    zero, which has no spread)."""
    if med:
        return (q3 - q1) / abs(med)
    return 0.0 if q3 == q1 else float("inf")


def parse_metric_lines(lines):
    """{name: (value, unit)} from the `metric NAME VALUE UNIT ...` lines a
    run prints before its JSON line."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 4 and parts[0] == "metric":
            try:
                out[parts[1]] = (float(parts[2]), parts[3])
            except ValueError:
                continue
    return out


def summarize(rows, seeds):
    """Per-metric values, median and quartiles over a workload's runs."""
    metrics = {}
    for row in rows:
        for name, m in row["metrics"].items():
            metrics.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(
                m["value"])
    for m in metrics.values():
        q1, med, q3 = quartiles(m["values"])
        m.update(n=len(m["values"]), median=med, q1=q1, q3=q3,
                 spread=relative_spread(q1, med, q3))
    return {"seeds": seeds,
            "correct": all(r["correct"] for r in rows),
            "attempted": sum(r["attempted"] for r in rows),
            "failed": sum(r["failed"] for r in rows),
            "metrics": metrics}


def load_extra_bounds(path):
    try:
        with open(path) as f:
            return json.load(f)["metrics"]
    except FileNotFoundError:
        return []


def bounds_from(bench, extra=()):
    """{metric: (better, bound)} from BENCHMARK.json's end-to-end metrics
    plus the workload-specific metrics recorded beside the benchmark."""
    out = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    for m in extra:
        out.setdefault(m["name"], (m["better"], m["bound"]))
    return out


def verdict(parent, child, better, bound):
    """Compares one metric's per-run values (paired by index)."""
    pairs = list(zip(parent, child))
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    pq1, pmed, pq3 = quartiles(parent)
    _, cmed, _ = quartiles(child)
    iqr = pq3 - pq1
    gap = sign * (cmed - pmed)
    if pmed:
        worse_share = -gap / abs(pmed)
    else:
        # A zero baseline (failed_frac): any worsening is a regression.
        worse_share = float("inf") if gap < 0 else 0.0
    spread = relative_spread(pq1, pmed, pq3)
    row = {"pairs": len(pairs), "wins": wins, "losses": losses, "parent_median": pmed,
           "parent_q1": pq1, "parent_q3": pq3, "child_median": cmed,
           "change": gap / abs(pmed) if pmed else 0.0, "spread": spread, "bound": bound}
    all_better = pairs and (sign * (min(child) - max(parent)) > 0 if sign > 0
                            else sign * (max(child) - min(parent)) > 0)
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and gap > iqr:
        row["verdict"] = "gain"
    elif worse_share > bound:
        row["verdict"] = "regression"
    elif spread > bound and not all_better:
        row["verdict"] = "unresolved"
    elif len(pairs) < MIN_PAIRS:
        row["verdict"] = "too few pairs"
    else:
        row["verdict"] = "within bound"
    return row


def compare(parent, child, bounds):
    """Rows of (workload, metric, verdict...) for every metric both result
    sets report and a bound covers."""
    rows = []
    for wl, p in parent["workloads"].items():
        c = child["workloads"].get(wl)
        if c is None:
            continue
        for name, pm in p["metrics"].items():
            cm = c["metrics"].get(name)
            if cm is None or name not in bounds:
                continue
            better, bound = bounds[name]
            n = min(len(pm["values"]), len(cm["values"]))
            row = verdict(pm["values"][:n], cm["values"][:n], better, bound)
            row.update(workload=wl, metric=name, unit=pm["unit"])
            rows.append(row)
    return {"parent": parent.get("commit"), "child": child.get("commit"), "rows": rows,
            "regressions": sum(r["verdict"] == "regression" for r in rows)}


def format_compare(report):
    out = [f"parent {report['parent']}  child {report['child']}",
           f"{'workload':<16} {'metric':<22} {'parent med [q1, q3]':>34} {'child med':>12} "
           f"{'change':>8} {'wins':>6} {'bound':>6}  verdict"]
    for r in report["rows"]:
        out.append(
            f"{r['workload']:<16} {r['metric']:<22} {r['parent_median']:>12.5g} "
            f"[{r['parent_q1']:.5g}, {r['parent_q3']:.5g}]".ljust(73)
            + f"{r['child_median']:>12.5g} {r['change']:>+8.1%} "
            f"{r['wins']:>3}/{r['pairs']:<2} {r['bound']:>6.2f}  {r['verdict']}")
    out.append(f"regressions: {report['regressions']}")
    return "\n".join(out)


def format_summary(result):
    out = [f"host {result['host']['cpu_model']} nproc {result['host']['nproc']} "
           f"simd {result['host']['simd']} commit {result['commit']}"]
    for wl, w in result["workloads"].items():
        out.append(f"{wl}: correct {w['correct']} attempted {w['attempted']} "
                   f"failed {w['failed']}")
        for name, m in w["metrics"].items():
            out.append(f"  {name:<24} median {m['median']:<12.6g} q1 {m['q1']:<12.6g} "
                       f"q3 {m['q3']:<12.6g} spread {m['spread']:.3f} n={m['n']} {m['unit']}")
    return "\n".join(out)
