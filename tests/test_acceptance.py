"""Acceptance suite: one criterion per test, one pass/fail line each.

Every criterion is checked end to end with exact arithmetic; random
instances are seeded through the library's counter-based generator, so the
suite is deterministic across platforms.
"""
import json
import subprocess
import sys
import time

import pytest

from leraytop import (check_amenta, check_hl,
                      check_intersection_bound, check_mps_vanishing,
                      check_projection_theorem, extremal_example, fiber_bound,
                      helly_number, leray_by_definition, leray_by_links,
                      make_complex, project, random_fr_family, reduced_betti,
                      unreduced_betti)
from leraytop.cli import _hmps_instances, _inter_instances, _lproj_instance
from leraytop.core import GuardExceeded
from leraytop.icss import (check_alt_chain_iso, check_euler,
                           check_proof_vanishing, e1_page)
from leraytop.multiproj import (make_partitioned, multiple_point_complex,
                                random_complex)
from leraytop.rng import CounterRng

from childenv import child_env
from oracles import (atom_family, boundary_complex, clique_complex,
                     enumerate_complexes, interval_family, is_chordal,
                     leray_number)


def _verdict(num, ok, detail):
    print("ACCEPTANCE %2d: %s - %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, detail


def test_criterion_01_sphere_homology():
    ok = True
    details = []
    for size in range(2, 6):
        started = time.monotonic()
        rb = reduced_betti(boundary_complex(range(size))).reduced
        elapsed = time.monotonic() - started
        expected = tuple(1 if q == size - 2 else 0 for q in range(size - 1))
        ok = ok and rb == expected and elapsed < 1.0
        details.append("|A|=%d: %s in %.3fs" % (size, rb, elapsed))
    _verdict(1, ok, "sphere Betti patterns exact (%s)" % "; ".join(details))


def test_criterion_02_leray_oracle_agreement():
    started = time.monotonic()
    disagreements = 0
    count = 0
    for facets in enumerate_complexes(5):
        X = make_complex(facets, allow_void=True)
        if leray_by_definition(X).value != leray_by_links(X).value:
            disagreements += 1
        count += 1
    for seed in range(200):
        X = random_complex(9, 3, 0.3 + 0.4 * CounterRng(seed).uniform(), seed)
        if leray_by_definition(X).value != leray_by_links(X).value:
            disagreements += 1
        count += 1
    elapsed = time.monotonic() - started
    ok = disagreements == 0 and elapsed < 600
    _verdict(2, ok,
             "definition = links on %d complexes (exhaustive <=5 vertices + "
             "200 random 9-vertex), %d disagreements, %.1fs"
             % (count, disagreements, elapsed))


def test_criterion_03_chordal_characterization():
    violations = 0
    for seed in range(100):
        rng = CounterRng(seed + 12345)
        n = 5 + rng.randint(5)
        p = 0.2 + 0.6 * rng.uniform()
        edges = [(a, b) for a in range(n) for b in range(a)
                 if rng.uniform() < p]
        chordal = is_chordal(edges, n=n)
        L = leray_number(clique_complex(edges, n=n))
        if chordal != (L <= 1):
            violations += 1
    _verdict(3, violations == 0,
             "chordal(G) iff L(clique complex) <= 1 on 100 random graphs, "
             "%d violations" % violations)


def test_criterion_04_extremal_tightness():
    ok = True
    details = []
    for r, d in [(2, 2), (2, 3), (3, 2)]:
        started = time.monotonic()
        px = extremal_example(r, d)
        lx = leray_by_links(px.complex).value
        rr = fiber_bound(px)[0]
        ly = leray_by_links(project(px)).value
        elapsed = time.monotonic() - started
        case_ok = (lx == d - 1 and rr == r and ly == r * d - 1
                   and ly == rr * lx + rr - 1 and elapsed < 300)
        ok = ok and case_ok
        details.append("(r=%d,d=%d): L(X)=%d, r=%d, L(Y)=%d in %.2fs"
                       % (r, d, lx, rr, ly, elapsed))
    _verdict(4, ok, "extremal equality attained (%s)" % "; ".join(details))


def test_criterion_05_projection_inequality():
    violations = 0
    for seed in range(100):
        if not check_projection_theorem(_lproj_instance(seed))["holds"]:
            violations += 1
    _verdict(5, violations == 0,
             "L(image) <= r L(X) + r - 1 on 100 seeded partitioned "
             "complexes, %d violations" % violations)


def test_criterion_06_mps_vanishing():
    violations = skipped = 0
    for seed in range(50):
        try:
            if not check_mps_vanishing(_hmps_instances(seed))["holds"]:
                violations += 1
        except GuardExceeded:
            skipped += 1
    _verdict(6, violations == 0 and skipped <= 10,
             "multiple-point vanishing on 50 seeded tuples, %d violations, "
             "%d guard-skipped" % (violations, skipped))


def test_criterion_07_intersection_bound():
    violations = 0
    for seed in range(100):
        if not check_intersection_bound(_inter_instances(seed))["holds"]:
            violations += 1
    _verdict(7, violations == 0,
             "L(X1 cap X2) <= L(X1) + L(X2) on 100 shared-vertex pairs, "
             "%d violations" % violations)


def test_criterion_08_icss_consistency():
    micro = make_partitioned(make_complex([[0], [1]]), [(0, 1)])
    page = e1_page(micro)
    micro_ok = ({pq: n for pq, n in page.table.items() if n}
                == {(0, 0): 2, (1, 0): 1}
                and page.signed_sum() == 1
                and unreduced_betti(project(micro)) == (1,)
                and page.extra_column_zero)
    checked = skipped = violations = 0
    for seed in range(100):
        px = _lproj_instance(seed)
        try:
            euler = check_euler(px, guard=4000)
            vanish = check_proof_vanishing(px, guard=4000)
            M2 = multiple_point_complex(px, 2, guard=4000)
            iso = check_alt_chain_iso(M2, guard=4000)
        except GuardExceeded:
            skipped += 1
            continue
        checked += 1
        if not (euler["holds"] and vanish["holds"] and iso["holds"]):
            violations += 1
    ok = micro_ok and violations == 0 and checked >= 50
    _verdict(8, ok,
             "micro page exact {(0,0):2,(1,0):1}; Euler, zero extra column, "
             "proof-region vanishing and alternating-chain dims on %d "
             "instances (%d guard-skipped), %d violations"
             % (checked, skipped, violations))


def test_criterion_09_helly_layer():
    from fractions import Fraction
    fixture_ok = True
    intervals = interval_family([("a", 0, 1), ("b", Fraction(1, 2), 2),
                                 ("c", Fraction(3, 2), 3)])
    fixture_ok &= helly_number(intervals).helly_number == 2
    triangle = atom_family({"ab": {"a", "b"}, "bc": {"b", "c"},
                            "ca": {"c", "a"}})
    rep = check_hl(triangle)
    fixture_ok &= rep["helly"] == 3 and rep["bound"] == 3 and rep["holds"]
    interval_bad = box_bad = 0
    for seed in range(50):
        fr = random_fr_family(1, 5, 2, seed)
        rep = check_amenta(fr)
        if not (rep["holds"] and rep["helly"] <= 4):
            interval_bad += 1
    for seed in range(50):
        fr = random_fr_family(2, 5, 2, seed + 10_000)
        rep = check_amenta(fr)
        if not (rep["holds"] and rep["helly"] <= 6):
            box_bad += 1
    ok = fixture_ok and interval_bad == 0 and box_bad == 0
    _verdict(9, ok,
             "h=2 intervals, h=3 triangle sides (bound tight); 50 (F,2) "
             "interval families h<=4 (%d bad) and 50 (F,2) box families "
             "d=2 h<=6 (%d bad) with full proof chain"
             % (interval_bad, box_bad))


def test_criterion_10_determinism():
    batches = [
        ["check", "lproj", "--seed", "0", "--count", "10"],
        ["check", "hl", "--seed", "0", "--count", "10"],
        ["amenta", "--r", "2", "--d", "1", "--groups", "4",
         "--seed", "0", "--count", "5"],
    ]
    ok = True
    for argv in batches:
        cmd = [sys.executable, "-m", "leraytop.cli"] + argv
        runs = [subprocess.run(cmd, capture_output=True, text=True,
                               env=child_env())
                for _ in range(2)]
        outs = []
        for proc in runs:
            lines = []
            for line in proc.stdout.splitlines():
                doc = json.loads(line)
                doc.pop("timing_ms", None)
                lines.append(json.dumps(doc, sort_keys=True))
            outs.append((proc.returncode, lines))
        ok = ok and outs[0] == outs[1] and outs[0][0] == 0
    _verdict(10, ok, "repeated seeded batch runs byte-identical "
                     "(timings excluded) across 3 subcommands")
