"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload lproj --seed 0 --seconds 30 --trace 0

Generates the workload's inputs from ``--seed`` as canonical JSON (not
timed), starts a fresh interpreter for set-up probes and for the measured
closed loop (one process, one thread), checks every output, and prints the
metrics: human-readable lines first, then one JSON object as the last line.
With ``--trace 0`` the object carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` the per-layer metrics of a second,
traced pass, whose spans are written under ``.perfbench_out/``.

Exit status: 0 when every output check passed, 1 when one failed, 2 when the
program or the workload is missing.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 6        # extra set-up-only processes; the median is reported
CHILD_TIMEOUT_S = 170


def _child(args, payload, timeout):
    """Run worker.py in a fresh interpreter; its last stdout line is JSON."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--t0", repr(time.monotonic())] + args
    proc = subprocess.run(cmd, input=payload, capture_output=True, text=True,
                          timeout=timeout, cwd=str(ROOT))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError("worker exited with status %d" % proc.returncode)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "leraytop" / "__init__.py").is_file():
        print("error: %s holds no leraytop sources" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    spec = _load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    sys.path.insert(0, str(HERE))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r (have %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)),
              file=sys.stderr)
        return 2

    started = time.perf_counter()
    texts = workloads.WORKLOADS[args.workload]().generate(args.seed)
    gen_s = time.perf_counter() - started
    payload = json.dumps({"workload": args.workload, "instances": texts})

    setups = [_child(["--setup-only"], payload, 60)["setup_s"]
              for _ in range(SETUP_PROBES)]
    child_args = ["--seed", str(args.seed), "--seconds", str(seconds),
                  "--trace", str(args.trace)]
    if args.trace:
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / ("spans-%s-seed%d.tsv"
                                % (args.workload, args.seed))
        child_args += ["--spans", str(spans_path)]
    res = _child(child_args, payload, CHILD_TIMEOUT_S)
    setups.append(res["setup_s"])

    e2e = {
        "instances_per_s": res["instances_per_s"],
        "latency_p50_ms": res["latency_p50_ms"],
        "latency_tail_ms": res["latency_tail_ms"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    attempted = res["attempted"]
    detail = {
        "workload": args.workload, "seed": args.seed,
        "failed_share": res["failed_share"],
        "refused_share": res["refused_share"],
        "tail_percentile": res["tail_percentile"],
        "tail_samples": res["tail_samples"],
        "tail_beyond": res["tail_beyond"],
        "instances": len(texts), "passes": res["passes"],
        "loop_s": res["wall_s"], "generate_s": gen_s,
        "digests": res["digests"],
    }
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    print("workload %s seed %d: %d instances x %d passes in %.2f s "
          "(inputs generated in %.2f s)"
          % (args.workload, args.seed, len(texts), res["passes"],
             res["wall_s"], gen_s))
    for name, value in e2e.items():
        print("  %-28s %14.6g %s" % (name, value, units[name]))
    print("  %-28s %14.6g %s" % ("failed_share", detail["failed_share"],
                                 units["failed_share"]))
    print("  %-28s %14.6g %s" % ("refused_share", detail["refused_share"],
                                 units["refused_share"]))
    print("  tail = p%g of %d samples, %d beyond it"
          % (detail["tail_percentile"], detail["tail_samples"],
             detail["tail_beyond"]))
    correct = res["failed"] == 0
    if args.trace:
        layer = res["layers"]
        for name in sorted(layer):
            print("  %-28s %14.6g %s" % (name, layer[name],
                                         units.get(name, "")))
        if res["trace_leftover"]:
            print("  tracer left wrappers installed: %s"
                  % ", ".join(res["trace_leftover"]))
        if res["trace_mismatch"]:
            print("  traced outputs differ from untraced on %d instances"
                  % res["trace_mismatch"])
        correct = (correct and not res["trace_leftover"]
                   and not res["trace_mismatch"])
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print("# detail " + json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
