#!/usr/bin/env python3
"""Compares two sets of benchmark runs, one row per workload and metric.

    python3 perfbench/compare.py BASE.jsonl [CHANGE.jsonl]

Each file holds the JSON lines sweep.py writes. For every metric of every
workload the table gives each set's median, first and third quartile
(statistics.quantiles, n=4) and spread, the interquartile distance as a share
of the median. With two sets, each end-to-end metric gets a verdict against
its bound from BENCHMARK.json:

  worse       the change's median is worse than the base's by more than the bound
  better      it is better by more than the wider of the two spreads
  unchanged   neither
  unresolved  a spread is wider than the bound, unless every run of the
              change reads better (or worse) than every run of the base

With one set, the verdict column says whether each spread is within a third
of its bound ("steady"). Per-layer metrics (traced runs) have no bound and
get no verdict. The share of failed operations is compared per workload too.
Exits 1 when any verdict is "worse" or "unresolved", or a failed share
differs.
"""

import json
import os
import statistics
import sys


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                record = json.loads(line)
                runs.setdefault(record["workload"], []).append(record)
    return runs


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, spread


def metric_values(records, name):
    return [r["result"]["metrics"][name]["value"] for r in records
            if r["result"] and name in r["result"]["metrics"]]


def failed_share(records):
    attempted = sum(r["result"]["attempted"] for r in records if r["result"])
    failed = sum(r["result"]["failed"] for r in records if r["result"])
    return failed, attempted


def verdict(base, change, better, bound):
    med_a, _, _, spread_a = summary(base)
    med_b, _, _, spread_b = summary(change)
    worse_by = (med_b - med_a) / med_a if better == "lower" else (med_a - med_b) / med_a
    spread = max(spread_a, spread_b)
    if spread > bound:
        b_better = (max(change) < min(base)) if better == "lower" else (min(change) > max(base))
        b_worse = (min(change) > max(base)) if better == "lower" else (max(change) < min(base))
        return "better" if b_better else "worse" if b_worse else "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > spread:
        return "better"
    return "unchanged"


def fmt(x):
    return f"{x:.6g}"


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base = load(sys.argv[1])
    change = load(sys.argv[2]) if len(sys.argv) == 3 else None

    bad = False
    header = ["workload", "metric", "unit", "base median [q1, q3]", "spread"]
    if change is not None:
        header += ["change median [q1, q3]", "spread", "change", "bound", "verdict"]
    else:
        header += ["bound", "verdict"]
    rows = [header]
    for workload, records in base.items():
        names = []
        for r in records:
            for name in (r["result"] or {}).get("metrics", {}):
                if name not in names:
                    names.append(name)
        other = change.get(workload, []) if change else None
        for name in names:
            spec_m = declared.get(name, {"unit": "?", "better": "lower"})
            values = metric_values(records, name)
            med, q1, q3, spread = summary(values)
            row = [workload, name, spec_m["unit"], f"{fmt(med)} [{fmt(q1)}, {fmt(q3)}]",
                   f"{spread:.3f}"]
            bound = spec_m.get("bound")
            if change is not None:
                values_b = metric_values(other, name)
                if not values_b:
                    row += ["-", "-", "-", "-", "missing"]
                    bad = bad or bound is not None
                else:
                    med_b, q1_b, q3_b, spread_b = summary(values_b)
                    delta = (med_b - med) / med if med else float("nan")
                    row += [f"{fmt(med_b)} [{fmt(q1_b)}, {fmt(q3_b)}]", f"{spread_b:.3f}",
                            f"{delta:+.3f}"]
                    if bound is None:
                        row += ["-", "-"]
                    else:
                        v = verdict(values, values_b, spec_m["better"], bound)
                        bad = bad or v in ("worse", "unresolved")
                        row += [str(bound), v]
            elif bound is None:
                row += ["-", "-"]
            else:
                steady = spread <= bound / 3 or name == "setup_s"
                row += [str(bound), "steady" if steady else "noisy"]
            rows.append(row)
        failed_a, attempted_a = failed_share(records)
        line = [workload, "failed/attempted", "share", f"{failed_a}/{attempted_a}", ""]
        if change is not None:
            failed_b, attempted_b = failed_share(other)
            same = failed_a * attempted_b == failed_b * attempted_a
            bad = bad or not same
            line += [f"{failed_b}/{attempted_b}", "", "", "", "same" if same else "differs"]
        else:
            line += ["", ""]
        rows.append(line)
    widths = [max(len(r[i]) for r in rows if i < len(r)) for i in range(len(header))]
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
