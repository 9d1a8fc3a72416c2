"""Run every workload (or the named ones) over several seeds, each run in a
fresh interpreter, and print every end-to-end metric with its unit.

    python3 perfbench/suite.py --runs 10 --out parent.jsonl
    python3 perfbench/suite.py --workloads lproj,icss-e1 --runs 3 --trace

Each run is ``run.py --workload W --seed S``; seeds are ``--first-seed``
onwards.  ``--trace`` adds one traced run per workload and prints each
layer's share of the traced wall time.  ``--out`` appends one JSON line per
run for ``compare.py``.  Exits 1 when any output check failed.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXTRA = (("failed_share", "ratio"), ("refused_share", "ratio"))


def run_once(workload, seed, seconds, trace):
    """One run.py invocation: (exit status, final JSON, detail JSON)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=str(ROOT),
                          timeout=900)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    detail = {}
    for line in lines:
        if line.startswith("# detail "):
            detail = json.loads(line[len("# detail "):])
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc.returncode, result, detail


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=None,
                   help="comma-separated names (default: all)")
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    seeds = range(args.first_seed, args.first_seed + args.runs)
    ok = True
    out = open(args.out, "a", encoding="utf-8") if args.out else None
    try:
        for name in names:
            values = {}
            for seed in seeds:
                status, result, detail = run_once(name, seed, args.seconds, 0)
                good = status == 0 and result is not None and result["correct"]
                ok = ok and good
                if result is None:
                    print("%s seed %d: no result (exit %d)" % (name, seed,
                                                               status))
                    continue
                if out:
                    out.write(json.dumps({"workload": name, "seed": seed,
                                          "trace": 0, "result": result,
                                          "detail": detail}) + "\n")
                for m, v in result["metrics"].items():
                    values.setdefault(m, []).append(v["value"])
                for m, _ in EXTRA:
                    values.setdefault(m, []).append(detail.get(m, 0.0))
                print("%s seed %d: %s, %d attempted, %d failed, tail p%.1f of "
                      "%d" % (name, seed, "correct" if good else "WRONG",
                              result["attempted"], result["failed"],
                              detail.get("tail_percentile", 0),
                              detail.get("tail_samples", 0)))
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            units.update(EXTRA)
            print("%s: median [q1, q3] over %d runs" % (name, len(seeds)))
            for m, unit in units.items():
                if m not in values:
                    continue
                q1, q2, q3 = _quartiles(values[m])
                spread = (q3 - q1) / q2 if q2 else 0.0
                print("  %-18s %12.6g %-6s [%.6g, %.6g]  spread %.3f"
                      % (m, q2, unit, q1, q3, spread))
            if args.trace:
                status, result, detail = run_once(name, seeds[0],
                                                  args.seconds, 1)
                ok = ok and status == 0
                if result is None:
                    continue
                if out:
                    out.write(json.dumps({"workload": name, "seed": seeds[0],
                                          "trace": 1, "result": result,
                                          "detail": detail}) + "\n")
                layer = {k: v["value"] for k, v in result["metrics"].items()}
                wall = layer["trace.wall_s"]
                shares = sorted(((layer[k] / wall, k[:-len(".self_s")])
                                 for k in layer if k.endswith(".self_s")),
                                reverse=True)
                print("  traced self time: " + ", ".join(
                    "%s %.0f%%" % (k, 100 * s) for s, k in shares if s > 0))
                print("  tracing overhead: %.1f%% of instances_per_s"
                      % (100 * layer["trace.overhead_share"]))
    finally:
        if out:
            out.close()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
