"""Tests of the benchmark itself: generator determinism, tracer hygiene,
self-time accounting and failure counting.  Run with
``python -m pytest perfbench``."""
from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402  (puts src/ on sys.path)
import compare  # noqa: E402
import layers  # noqa: E402
import worker  # noqa: E402
from tracer import self_times  # noqa: E402

import leraytop  # noqa: E402

SMALL = {"lproj": 2, "homology-large": 2, "icss-e1": 3, "helly-amenta": 2}


def _bindings():
    """Every attribute of every leraytop module and of SimplicialComplex."""
    mods = [m for name, m in sys.modules.items()
            if m is not None and name.startswith("leraytop")]
    out = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    out.update({("SimplicialComplex", k): v for k, v in
                vars(leraytop.core.SimplicialComplex).items()})
    return out


def _traced_pass(name, count):
    wl = workloads.WORKLOADS[name]()
    texts = wl.generate(7, count)
    tracer = layers.make_tracer(extra_sites=[workloads])
    outcomes = []
    start = time.perf_counter()
    with tracer, wl.session():
        for i, text in enumerate(texts):
            tracer.instance = i
            idx = tracer.begin(layers.INSTANCE)
            outcome, _, _ = worker.run_instance(workloads, wl, text)
            tracer.end(idx)
            outcomes.append(outcome)
    return tracer, outcomes, time.perf_counter() - start


def test_generator_is_byte_deterministic_per_seed():
    for name, count in SMALL.items():
        wl = workloads.WORKLOADS[name]()
        first = wl.generate(11, count)
        assert first == wl.generate(11, count), name
        assert first != wl.generate(12, count), name
        assert all(isinstance(t, str) and t.endswith("\n") for t in first)


def test_tracer_restores_every_binding():
    before = _bindings()
    tracer, outcomes, _ = _traced_pass("lproj", 1)
    assert outcomes == ["ok"]
    assert tracer.leftover_wrappers() == []
    after = _bindings()
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert changed == []


def test_tracer_sees_calls_through_every_import_site():
    tracer, _, _ = _traced_pass("lproj", 1)
    names = [s[0] for s in tracer.spans]
    parents = {(names[p], s[0]) for s in tracer.spans
               for p in [s[3]] if p >= 0}
    # leray and multiproj each bind their own copy of these names
    assert ("leray.leray_by_links", "homology.reduced_betti") in parents
    assert ("multiproj.check_projection_theorem",
            "leray.leray_by_links") in parents
    assert tracer.counters["core.as_simplex.calls"] > 0


def test_self_times_never_exceed_wall_time():
    for name in ("lproj", "icss-e1"):
        tracer, outcomes, wall = _traced_pass(name, SMALL[name])
        selfs = self_times(tracer.spans)
        assert min(selfs) >= -1e-9
        assert sum(selfs) <= wall
        m = layers.layer_metrics(tracer, outcomes, wall)
        layer_sum = sum(m[k] for k in m if k.endswith(".self_s"))
        assert abs(layer_sum - sum(selfs)) < 1e-6
        assert 0.0 <= m["icss.useful_work_ratio"] <= 1.0


class _WrongLproj(workloads.Lproj):
    """Reports an image Leray number one too high."""

    def run(self, text):
        result = super().run(text)
        result.output["leray_y"] += 1
        return result


def test_injected_wrong_output_counts_as_failed():
    wl = _WrongLproj()
    texts = wl.generate(3, 2)
    out, _ = worker.measure(workloads, wl, texts, seed=3, seconds=0)
    passes = workloads.spec()["workloads"]["lproj"]["timing"]["min_passes"]
    assert out["attempted"] == 2 * passes
    assert out["failed"] == out["attempted"]
    assert out["failed_share"] == 1.0
    assert out["refused_share"] == 0.0

    good, _ = worker.measure(workloads, workloads.Lproj(), texts, seed=3,
                             seconds=0)
    assert good["failed"] == 0


def test_default_seed_digest_mismatch_counts_as_failed(monkeypatch):
    wl = workloads.Lproj()
    seed = workloads.spec()["default_seed"]
    texts = wl.generate(seed, 2)
    monkeypatch.setitem(workloads.spec()["workloads"]["lproj"],
                        "outputs_sha256", ["0" * 16, "0" * 16])
    out, _ = worker.measure(workloads, wl, texts, seed, 0)
    assert out["failed"] == out["attempted"] > 0


def test_tail_leaves_ten_samples_beyond_it_at_min_samples():
    for name, entry in workloads.spec()["workloads"].items():
        timing = entry["timing"]
        lat = list(range(timing["min_samples"]))
        value, beyond = worker.tail(lat, timing["tail_percentile"])
        assert beyond == sum(1 for x in lat if x > value)
        assert beyond >= 10, name


def test_compare_verdicts():
    parent = {s: 10.0 + 0.1 * s for s in range(10)}
    faster = {s: 20.0 + 0.1 * s for s in range(10)}
    assert compare.verdict(parent, faster, 0.1, "higher")[0] == "gain"
    assert compare.verdict(parent, faster, 0.1, "lower")[0] == "regression"
    assert compare.verdict(parent, dict(parent), 0.1, "lower")[0] == \
        "within bound"
    noisy = {s: 10.0 * (1 + (s % 2)) for s in range(10)}
    assert compare.verdict(noisy, noisy, 0.1, "lower")[0] == "unresolved"
