"""One measured workload process (started by run.py).

Reads ``{"workload": name, "instances": [text, ...]}`` from standard input,
runs the timed loop as a single closed-loop client, checks every output
after the loop, optionally repeats one pass under the tracer, and writes
one JSON object to standard output.

``--t0`` is the parent's monotonic clock just before this process was
started (CLOCK_MONOTONIC is shared by all processes of the host), so
``setup_s`` covers interpreter start, imports and loading the inputs.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path


def _setup(t0):
    """Imports and input loading: everything before the first instance."""
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads
    doc = json.loads(sys.stdin.read())
    wl = workloads.WORKLOADS[doc["workload"]]()
    return workloads, wl, doc["instances"], time.monotonic() - t0


def run_instance(workloads, wl, text):
    """Timed call on one instance: (outcome, result, seconds)."""
    start = time.perf_counter()
    outcome, result = workloads.attempt(wl, text)
    return outcome, result, time.perf_counter() - start


def timed_loop(workloads, wl, texts, seconds, min_passes=1):
    """Whole passes over ``texts`` until ``seconds`` have elapsed and at
    least ``min_passes`` are done.

    Returns the first pass's outcomes and results, every latency, each
    pass's wall time and the number of later-pass outputs that differ from
    the first pass's.
    """
    outcomes, results, latencies, pass_walls = [], [], [], []
    repeat_mismatch = 0
    start = time.perf_counter()
    with wl.session():
        while True:
            pass_start = time.perf_counter()
            for i, text in enumerate(texts):
                outcome, result, dt = run_instance(workloads, wl, text)
                latencies.append(dt)
                if not pass_walls:
                    outcomes.append(outcome)
                    results.append(result)
                elif outcome != outcomes[i] or (
                        result is not None
                        and result.output != results[i].output):
                    repeat_mismatch += 1
            now = time.perf_counter()
            pass_walls.append(now - pass_start)
            if now - start >= seconds and len(pass_walls) >= min_passes:
                break
    return outcomes, results, latencies, pass_walls, repeat_mismatch


def check_outputs(workloads, wl, seed, outcomes, results):
    """Untimed output checks; returns the indices of failed instances."""
    failed = set()
    digests = []
    for i, (outcome, result) in enumerate(zip(outcomes, results)):
        if outcome == "failed":
            failed.add(i)
            digests.append(None)
            continue
        digests.append(workloads.output_digest(result.output))
        if outcome == "ok":
            try:
                if not wl.check(result):
                    failed.add(i)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                failed.add(i)
    expected = workloads.spec()["workloads"][wl.name]["outputs_sha256"]
    if seed == workloads.spec()["default_seed"] and expected:
        if len(expected) != len(digests):
            failed.update(range(len(digests)))
        for i, (got, want) in enumerate(zip(digests, expected)):
            if got != want:
                failed.add(i)
    return failed, digests


def quantile(values, p):
    """Harrell-Davis estimate of the ``p``-quantile (0 < p < 1) of positive
    ``values``, taken on their logarithms.

    A weighted geometric mean of every order statistic, each weighted by
    the Beta(p(n+1), (1-p)(n+1)) mass on its slot.  Unlike a single order
    statistic it does not jump between neighbouring instances when host
    noise swaps their order; on the log scale an instance ten times slower
    a few slots away pulls it little.  A zero (a coarse clock) counts as
    one nanosecond.
    """
    xs = sorted(math.log(max(x, 1e-9)) for x in values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    if n == 1 or a < 1 or b < 1:
        return math.exp(xs[max(0, math.ceil(p * n) - 1)])
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def pdf(t):
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t)
                        - log_beta)

    steps = 8                   # Simpson panels per slot
    h = 1.0 / (n * steps)
    weights = []
    for i in range(n):
        ts = [(i * steps + j) * h for j in range(steps + 1)]
        w = pdf(ts[0]) + pdf(ts[-1]) + sum(
            (4 if j % 2 else 2) * pdf(t) for j, t in enumerate(ts[1:-1], 1))
        weights.append(w)
    return math.exp(sum(w * x for w, x in zip(weights, xs))
                    / sum(weights))


def tail(latencies, percentile):
    """The ``percentile`` estimate and the number of samples beyond it."""
    value = quantile(latencies, percentile / 100.0)
    return value, sum(1 for x in latencies if x > value)


def traced_pass(workloads, wl, texts, first_outputs):
    """One pass under the tracer; outputs must equal the untraced ones."""
    import layers
    tracer = layers.make_tracer(extra_sites=[workloads])
    outcomes = []
    mismatch = 0
    start = time.perf_counter()
    with tracer, wl.session():
        for i, text in enumerate(texts):
            tracer.instance = i
            idx = tracer.begin(layers.INSTANCE)
            outcome, result, _ = run_instance(workloads, wl, text)
            tracer.end(idx)
            outcomes.append(outcome)
            if result is None or result.output != first_outputs[i]:
                mismatch += 1
    wall = time.perf_counter() - start
    leftover = tracer.leftover_wrappers()
    metrics = layers.layer_metrics(tracer, outcomes, wall)
    metrics["io_json.bytes_in"] = sum(len(t.encode("utf-8")) for t in texts)
    return tracer, metrics, wall, mismatch, leftover


def measure(workloads, wl, texts, seed, seconds):
    """One run: the timed loop, then the untimed output checks."""
    timing = workloads.spec()["workloads"][wl.name]["timing"]
    outcomes, results, latencies, pass_walls, repeat_mismatch = \
        timed_loop(workloads, wl, texts, seconds, timing["min_passes"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed_idx, digests = check_outputs(workloads, wl, seed, outcomes,
                                        results)
    passes = len(pass_walls)
    attempted = len(latencies)
    failed = len(failed_idx) * passes + repeat_mismatch
    refused = outcomes.count("refused") * passes
    tail_ms, beyond = tail(latencies, timing["tail_percentile"])
    return {
        "attempted": attempted,
        "failed": failed,
        "refused": refused,
        "failed_share": (failed + refused) / attempted,
        "refused_share": refused / attempted,
        "passes": passes,
        "wall_s": sum(pass_walls),
        "last_pass_s": pass_walls[-1],
        "instances_per_s": attempted / sum(pass_walls),
        "latency_p50_ms": 1000.0 * quantile(latencies, 0.5),
        "latency_tail_ms": 1000.0 * tail_ms,
        "tail_percentile": timing["tail_percentile"],
        "tail_samples": len(latencies),
        "tail_beyond": beyond,
        "peak_rss_mb": peak_rss_mb,
        "digests": digests,
    }, results


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--spans", default=None)
    args = p.parse_args(argv)

    workloads, wl, texts, setup_s = _setup(args.t0)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    out, results = measure(workloads, wl, texts, args.seed, args.seconds)
    out["setup_s"] = setup_s
    if args.trace:
        first_outputs = [r.output if r is not None else None for r in results]
        tracer, metrics, twall, mismatch, leftover = traced_pass(
            workloads, wl, texts, first_outputs)
        if args.spans:
            tracer.write(args.spans)
        # against the last untraced pass, the nearest in time, so that
        # drift in the host's speed moves the difference least
        metrics["trace.overhead_share"] = 1.0 - out["last_pass_s"] / twall
        metrics["failed_share"] = out["failed_share"]
        metrics["refused_share"] = out["refused_share"]
        out["layers"] = metrics
        out["trace_mismatch"] = mismatch
        out["trace_leftover"] = leftover
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
