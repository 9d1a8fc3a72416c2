"""Compare result files of a parent and a change (written by
``suite.py --out``), one row per workload and end-to-end metric.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Verdicts, with the bounds of BENCHMARK.json:

* ``gain``: the change wins at least 9/10 of the seed-matched pairs (ties
  count for neither side) and the medians differ by more than the parent's
  interquartile range;
* ``unresolved``: the run-to-run spread (interquartile range over median)
  of either side exceeds the bound, unless every change run beats every
  parent run;
* ``regression``: the change's median is worse than the parent's by more
  than the bound;
* ``within bound`` otherwise.

Exits 1 when any metric regressed.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    """{workload: {metric: {seed: value}}} from the untraced runs."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec["trace"]:
                continue
            per = out.setdefault(rec["workload"], {})
            for m, v in rec["result"]["metrics"].items():
                per.setdefault(m, {})[rec["seed"]] = v["value"]
    return out


def _stats(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, bound, better):
    """Compare seed-keyed runs of one metric; returns (verdict, row data)."""
    sign = 1.0 if better == "higher" else -1.0
    seeds = sorted(set(parent) & set(change))
    won = sum(1 for s in seeds if sign * (change[s] - parent[s]) > 0)
    p1, pm, p3 = _stats(list(parent.values()))
    c1, cm, c3 = _stats(list(change.values()))
    worse = -sign * (cm - pm) / pm if pm else 0.0
    spread = max((p3 - p1) / pm if pm else 0.0, (c3 - c1) / cm if cm else 0.0)
    all_better = all(sign * (c - p) > 0 for c in change.values()
                     for p in parent.values())
    if (seeds and won >= math.ceil(0.9 * len(seeds)) and sign * (cm - pm) > 0
            and abs(cm - pm) > p3 - p1):
        result = "gain"
    elif spread > bound and not all_better:
        result = "unresolved"
    elif worse > bound:
        result = "regression"
    else:
        result = "within bound"
    return result, {"parent": (pm, p1, p3), "change": (cm, c1, c3),
                    "worse": worse, "won": won, "pairs": len(seeds),
                    "spread": spread}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent, change = load(args.parent), load(args.change)
    regressed = False
    print("%-15s %-16s %-5s %26s %26s %8s %6s %7s  %s"
          % ("workload", "metric", "unit", "parent median [q1,q3]",
             "change median [q1,q3]", "worse", "won", "spread", "verdict"))
    for w in spec["workloads"]:
        name = w["name"]
        for m in spec["end_to_end"]:
            pv = parent.get(name, {}).get(m["name"])
            cv = change.get(name, {}).get(m["name"])
            if not pv or not cv:
                print("%-15s %-16s missing in %s" % (
                    name, m["name"], "parent" if not pv else "change"))
                continue
            v, d = verdict(pv, cv, m["bound"], m["better"])
            regressed = regressed or v == "regression"
            print("%-15s %-16s %-5s %26s %26s %+7.1f%% %2d/%-3d %6.3f  %s"
                  % (name, m["name"], m["unit"],
                     "%.4g [%.4g,%.4g]" % d["parent"],
                     "%.4g [%.4g,%.4g]" % d["change"],
                     100 * d["worse"], d["won"], d["pairs"], d["spread"], v))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
