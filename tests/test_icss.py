import json
from itertools import combinations, permutations
from pathlib import Path

import pytest

from leraytop import (GuardExceeded, alt_chain_complex,
                      check_alt_chain_iso, check_euler, check_proof_vanishing,
                      double_point_closure, e1_page, make_complex,
                      multiple_point_complex, project, sym_action,
                      unreduced_betti)
from leraytop import cli, icss, multiproj
from leraytop.cli import _hmps_instances, _lproj_instance
from leraytop.core import ComplexError
from leraytop.homology import rank_of_rows
from leraytop.icss import _actions, _sort_sign, perm_sign
from leraytop.io_json import partitioned_to_json
from leraytop.multiproj import (PartitionedComplex, _section_table,
                                fiber_bound, make_partitioned, random_complex,
                                random_partitioned_complex, extremal_example)
from leraytop.rng import CounterRng

from oracles import (alt_betti, alt_chain_boundaries, e1_page_by_building,
                     f_vector, solid_simplex)


def two_points_one_part():
    return make_partitioned(make_complex([[0], [1]]), [(0, 1)])


def singleton_px(X):
    return make_partitioned(X, [(v,) for v in range(X.vertex_count)])


def test_perm_sign():
    assert perm_sign((0, 1, 2)) == 1
    assert perm_sign((1, 0, 2)) == -1
    assert perm_sign((1, 2, 0)) == 1
    for bad in ((0, 0), (2,)):
        with pytest.raises(ComplexError, match="not a permutation"):
            perm_sign(bad)
    # the parity of the inversion count, on every permutation of <= 6
    for n in range(7):
        for p in permutations(range(n)):
            inversions = sum(a > b for a, b in combinations(p, 2))
            assert perm_sign(p) == _sort_sign(p) == (-1) ** inversions


def _sign_by_cycles(values):
    """Sign of the permutation sorting distinct ``values``: (-1) to the
    number of elements minus the number of cycles, or 0 on a repeat."""
    if len(set(values)) < len(values):
        return 0
    target = sorted(range(len(values)), key=values.__getitem__)
    seen, cycles = set(), 0
    for start in range(len(values)):
        if start not in seen:
            cycles += 1
            i = start
            while i not in seen:
                seen.add(i)
                i = target[i]
    return (-1) ** (len(values) - cycles)


def test_sort_sign_matches_cycle_sign():
    rng = CounterRng(31)
    for n in range(7):
        for p in permutations(range(n)):
            # spread out, so the values are not positions
            values = [3 * v - 7 for v in p]
            assert _sort_sign(values) == _sign_by_cycles(values)
            assert _sort_sign(tuple(values)) == _sort_sign(iter(values))
    for _ in range(500):
        values = [rng.randint(5) for _ in range(rng.randint(7))]
        assert _sort_sign(values) == _sign_by_cycles(values)
    assert _sort_sign([2, 2]) == _sort_sign([0, 1, 0]) == 0
    assert _sort_sign([]) == _sort_sign([4]) == 1


def test_sym_action_examples():
    M = multiple_point_complex(two_points_one_part(), 2)
    ident = sym_action(M, (0, 1))
    assert ident.vertex_map == tuple(range(M.complex.vertex_count))
    swap = sym_action(M, (1, 0))
    idx = M.vertex_index()
    assert swap.vertex_map[idx[(0, (0, 1))]] == idx[(0, (1, 0))]
    # diagonal vertices are fixed, with sign +1
    v = idx[(0, (0, 0))]
    assert swap.on_simplex((v,)) == ((v,), 1)
    with pytest.raises(ComplexError):
        sym_action(M, (0, 0))


def _projector_image(M, simplex):
    """Alt(simplex) without the 1/k! factor, as a chain dict."""
    out = {}
    for gsign, act in _actions(M):
        t, eps = act.on_simplex(simplex)
        c = gsign * eps
        if c:
            out[t] = out.get(t, 0) + c
    return {t: c for t, c in out.items() if c}


def _apply_projector(M, chain):
    out = {}
    for s, coeff in chain.items():
        for t, c in _projector_image(M, s).items():
            out[t] = out.get(t, 0) + coeff * c
    return {t: c for t, c in out.items() if c}


@pytest.mark.parametrize("seed", range(4))
def test_alt_projector_idempotent(seed):
    import math
    px = random_partitioned_complex(3, [2, 2, 1], 2, 0.6, seed + 20)
    M = multiple_point_complex(px, 2)
    rng = CounterRng(seed)
    simplices = M.complex.all_simplices()
    chain = {simplices[rng.randint(len(simplices))]: rng.randint(9) - 4
             for _ in range(5)}
    once = _apply_projector(M, chain)
    twice = _apply_projector(M, once)
    k_fact = math.factorial(M.k)
    assert twice == {t: k_fact * c for t, c in once.items() if c}


@pytest.mark.parametrize("seed", range(4))
def test_projector_image_matches_survival_basis(seed):
    px = random_partitioned_complex(3, [2, 2, 2], 2, 0.5, seed + 40)
    M = multiple_point_complex(px, 2)
    acc = alt_chain_complex(M)
    by_deg = {}
    for s in M.complex.all_simplices():
        by_deg.setdefault(len(s) - 1, []).append(s)
    for q, ss in by_deg.items():
        cols = {s: i for i, s in enumerate(ss)}
        rows = [{cols[t]: c for t, c in _projector_image(M, s).items()}
                for s in ss]
        assert rank_of_rows([r for r in rows if r]) == acc.dim(q)
        # survival condition agrees with nonvanishing projector image
        for s, row in zip(ss, rows):
            in_basis = any(s in _projector_image(M, rep)
                           for rep in acc.reps.get(q, []))
            assert bool(row) == (bool(_projector_image(M, s)))


@pytest.mark.parametrize("seed", range(3))
def test_action_commutes_with_boundary(seed):
    px = random_partitioned_complex(3, [2, 2, 1], 2, 0.7, seed + 60)
    M = multiple_point_complex(px, 2)

    def boundary(s, coeff):
        out = {}
        for i in range(len(s)):
            out[s[:i] + s[i + 1:]] = coeff * (-1 if i % 2 else 1)
        return out

    for _, act in _actions(M):
        for s in M.complex.all_simplices():
            if len(s) < 2:
                continue
            t, eps = act.on_simplex(s)
            lhs = boundary(t, eps)
            rhs = {}
            for face, c in boundary(s, 1).items():
                ft, feps = act.on_simplex(face)
                rhs[ft] = rhs.get(ft, 0) + c * feps
            rhs = {u: c for u, c in rhs.items() if c}
            lhs = {u: c for u, c in lhs.items() if c}
            assert lhs == rhs


def test_alt_chain_examples():
    X = random_complex(5, 2, 0.6, 77)
    M1 = multiple_point_complex(singleton_px(X), 1)
    acc = alt_chain_complex(M1)
    fv = f_vector(X)
    assert all(acc.dim(q) == fv[q] for q in range(len(fv)))

    M2 = multiple_point_complex(two_points_one_part(), 2)
    acc2 = alt_chain_complex(M2)
    assert {q: len(v) for q, v in acc2.reps.items()} == {0: 1}


def test_alt_chain_boundary_squares_to_zero():
    px = random_partitioned_complex(3, [2, 2, 2], 2, 0.7, 5)
    M = multiple_point_complex(px, 2)
    _, matrices = alt_chain_boundaries(M)
    for q in matrices:
        if q + 1 not in matrices:
            continue
        upper, lower = matrices[q + 1], matrices[q]
        for lrow in lower:
            prod = {}
            for mid, v in lrow.items():
                for j, w in upper[mid].items():
                    prod[j] = prod.get(j, 0) + v * w
            assert all(x == 0 for x in prod.values())


def test_alt_betti_examples():
    X = random_complex(5, 2, 0.6, 78)
    M1 = multiple_point_complex(singleton_px(X), 1)
    assert alt_betti(M1) == unreduced_betti(X)
    M2 = multiple_point_complex(two_points_one_part(), 2)
    assert alt_betti(M2) == (1,)


def test_e1_page_r1_is_image_homology():
    X = random_complex(5, 2, 0.6, 79)
    page = e1_page(singleton_px(X))
    assert page.r == 1 and page.extra_column_zero
    for q, b in enumerate(unreduced_betti(X)):
        assert page.table[(0, q)] == b
    assert all(p == 0 for (p, _), n in page.table.items() if n)


def test_e1_page_micro_example():
    px = two_points_one_part()
    page = e1_page(px)
    assert page.r == 2
    assert {pq: n for pq, n in page.table.items() if n} == {(0, 0): 2,
                                                            (1, 0): 1}
    assert page.extra_column_zero
    assert unreduced_betti(project(px)) == (1,)
    assert page.signed_sum() == 1


def test_double_point_closure_examples():
    X = random_complex(5, 2, 0.6, 80)
    M1 = multiple_point_complex(singleton_px(X), 1)
    assert double_point_closure(M1).complex.facets == M1.complex.facets

    M2 = multiple_point_complex(two_points_one_part(), 2)
    D2 = double_point_closure(M2)
    kept = {M2.tuples[v] for f in D2.complex.facets for v in f}
    assert kept == {(0, 1), (1, 0)}

    # fiber bound 1: the off-diagonal part is void
    px = singleton_px(X)
    D = double_point_closure(multiple_point_complex(px, 2))
    assert D.complex.is_void()


@pytest.mark.parametrize("seed", range(60))
def test_orbit_representatives_match_the_full_scan(seed):
    # the library's scan keeps a set of the simplices seen where the full
    # scan maps each one to its representative: the same bases, in order
    px = _lproj_instance(seed, 12)
    M2 = multiple_point_complex(px, 2)
    for M in (M2, multiple_point_complex(px, 3), double_point_closure(M2)):
        reps, _ = alt_chain_boundaries(M)
        assert alt_chain_complex(M).reps == reps


@pytest.mark.parametrize("seed", [3, 9, 21])
def test_check_alt_chain_iso(seed):
    px = random_partitioned_complex(3, [2, 2, 2], 2, 0.6, seed)
    M = multiple_point_complex(px, 2)
    rep = check_alt_chain_iso(M)
    assert rep["holds"]
    M1 = multiple_point_complex(px, 1)
    assert check_alt_chain_iso(M1)["holds"]


def test_check_euler():
    X = random_complex(5, 2, 0.6, 81)
    rep = check_euler(singleton_px(X))
    assert rep["holds"]
    rep = check_euler(two_points_one_part())
    assert rep["chi_image"] == 1 and rep["page_sum"] == 1 and rep["holds"]
    rep = check_euler(extremal_example(2, 2))
    assert rep["chi_image"] == 2 and rep["holds"]


def test_check_proof_vanishing():
    simplex_px = singleton_px(solid_simplex(range(3)))
    rep = check_proof_vanishing(simplex_px)
    # threshold 0 puts everything in the region; the q=0 entries are exempt
    assert rep["leray_x"] == 0 and rep["threshold"] == 0 and rep["holds"]
    rep = check_proof_vanishing(extremal_example(2, 2))
    assert rep["r"] == 2 and rep["threshold"] == 3 and rep["holds"]
    rep = check_proof_vanishing(
        random_partitioned_complex(3, [2, 2, 2], 2, 0.5, 5))
    assert rep["holds"]


def test_work_guard(monkeypatch):
    px = random_partitioned_complex(3, [2, 2, 2], 2, 1.0, 0)
    M = multiple_point_complex(px, 2)
    monkeypatch.setattr(icss, "DEFAULT_ALT_WORK_GUARD", 3)
    with pytest.raises(GuardExceeded):
        alt_chain_complex(M)


# -- up-front refusal and one page per input ------------------------------


def _calls(monkeypatch, module, name):
    """Count the calls made to module.name through its module binding."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _outcome(fn, px, guard):
    """The page fn computes, or the type and message of its refusal."""
    try:
        return fn(px, guard=guard)
    except GuardExceeded as exc:
        return type(exc), str(exc)


REFUSAL_INSTANCES = ([("seed", s) for s in range(60)]
                     + [("extremal", rd) for rd in ((2, 2), (3, 2))])
REFUSAL_IDS = ["seed-%d" % a if kind == "seed" else "extremal-%d-%d" % a
               for kind, a in REFUSAL_INSTANCES]


@pytest.mark.parametrize("kind,arg", REFUSAL_INSTANCES, ids=REFUSAL_IDS)
def test_e1_page_refuses_like_building(kind, arg, monkeypatch):
    px = (_lproj_instance(arg, 12) if kind == "seed"
          else extremal_example(*arg))
    table = _section_table(px)
    r = max(map(len, table.values()))
    sizes = [sum(len(secs) ** k for secs in table.values())
             for k in range(1, r + 2)]
    guards = {50, 500, 5000, 20000}
    # the reference builds every M_k a guard admits, so boundaries above
    # the largest fixed guard would cost it minutes and gigabytes;
    # test_refusing_e1_page_builds_nothing covers one such boundary
    guards.update(c + d for c in sizes if c <= 20000 for d in (-1, 0, 1))
    calls = _calls(monkeypatch, multiproj, "generalized_mpc")
    for guard in sorted(guards):
        # a fresh px each time, so no stored page answers for the guard
        fresh = PartitionedComplex(px.complex, px.parts)
        calls.clear()
        got = _outcome(e1_page, fresh, guard)
        assert not calls, guard          # page or refusal, nothing built
        assert got == _outcome(e1_page_by_building, px, guard), guard


def test_refusing_e1_page_builds_nothing(monkeypatch):
    px = _lproj_instance(3, 12)          # r = 7; M_5 has 37187 simplices
    reasons = {guard: _outcome(e1_page_by_building, px, guard)
               for guard in (37186, 37187, 37188)}
    calls = _calls(monkeypatch, multiproj, "generalized_mpc")
    for guard, reason in reasons.items():
        assert _outcome(e1_page, px, guard) == reason
    assert [msg.split(" exceeds")[0] for _, msg in reasons.values()] == [
        "multiple-point simplex count", "simplex enumeration",
        "alternating-orbit scan (37187 simplices x 120 group elements)"]
    assert not calls


def _page_calls(monkeypatch):
    """Count the page's closed-form columns, and the multiple-point
    complexes and orbit scans it must not need."""
    return (_calls(monkeypatch, icss, "_closed_alt_betti"),
            _calls(monkeypatch, multiproj, "generalized_mpc"),
            _calls(monkeypatch, icss, "alt_chain_complex"))


def test_checks_share_one_page(monkeypatch):
    px = extremal_example(2, 2)
    r = fiber_bound(px)[0]
    columns, built, scanned = _page_calls(monkeypatch)
    assert check_euler(px)["holds"] and check_proof_vanishing(px)["holds"]
    assert len(columns) == r + 1
    assert not built and not scanned


def test_cli_icss_builds_one_page(monkeypatch, tmp_path, capsys):
    px = extremal_example(2, 2)
    f = tmp_path / "px.json"
    f.write_text(partitioned_to_json(px))
    columns, built, scanned = _page_calls(monkeypatch)
    assert cli.run(["icss", str(f)]) == 0
    assert json.loads(capsys.readouterr().out)["holds"]
    assert len(columns) == fiber_bound(px)[0] + 1
    assert not built and not scanned


def test_icss_e1_builds_one_section_table_per_complex(monkeypatch):
    # the page's checks and M_2 read the table stored on px: one build for
    # each instance of the icss-e1 benchmark's default seed, refused ones
    # included
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads
    wl = workloads.IcssE1()
    texts = wl.generate(0)
    built = []
    inner = multiproj._section_table
    monkeypatch.setattr(multiproj, "_section_table",
                        lambda px, guard: built.append(px) or inner(px, guard))
    outcomes = [workloads.attempt(wl, text)[0] for text in texts]
    assert len(texts) == 10 and "refused" in outcomes
    assert len(built) == len({id(px) for px in built}) == len(texts)


def test_check_proof_vanishing_leray_scan_honours_the_guard(monkeypatch):
    assert len(extremal_example(2, 2).complex.all_simplices()) > 10
    px = extremal_example(2, 2)
    built = _calls(monkeypatch, multiproj, "generalized_mpc")
    paged = _calls(monkeypatch, icss, "e1_page")
    with pytest.raises(GuardExceeded,
                       match="^simplex enumeration exceeds guard 10$"):
        check_proof_vanishing(px, guard=10)
    assert not built and not paged


def test_stored_page_still_checks_the_guard(monkeypatch):
    px = extremal_example(2, 2)
    page = e1_page(px)
    assert e1_page(px) is page
    with pytest.raises(GuardExceeded):
        e1_page(px, guard=50)
    with monkeypatch.context() as m:
        m.setattr(multiproj, "DEFAULT_MPC_VERTEX_GUARD", 3)
        with pytest.raises(GuardExceeded):
            e1_page(px)
    assert e1_page(px) is page
    # the stored page is not part of the value
    fresh = PartitionedComplex(px.complex, px.parts)
    assert fresh == px and hash(fresh) == hash(px) and repr(fresh) == repr(px)


# -- closed-form columns against the orbit scan ----------------------------


def _columns(px, k, guard=20000):
    """Alternating Betti numbers of M_k by the closed form, and by the
    orbit scan of the built M_k padded to dim(image)+1 degrees (None when a
    guard refuses building or scanning M_k)."""
    sections = _section_table(px)
    top = max(map(len, sections)) - 1
    closed = icss._closed_alt_betti(
        sections, icss._section_faces(px, sections), k, top)
    try:
        orbit = alt_betti(multiple_point_complex(px, k, guard=guard),
                          guard=guard)
    except GuardExceeded:
        return closed, None
    return closed, orbit + (0,) * (top + 1 - len(orbit))


@pytest.mark.parametrize("seed", range(60))
def test_closed_form_matches_orbit_scan(seed):
    px = _lproj_instance(seed, 12)
    refused = []
    for k in range(1, 5):
        closed, orbit = _columns(px, k)
        if orbit is None:
            refused.append(k)
        else:
            assert closed == orbit, k
    # only M_4 of seeds 14 and 28 exceeds 20000 simplices: 238 pairs
    assert refused == ([4] if seed in (14, 28) else [])


@pytest.mark.parametrize("r,d", [(2, 2), (3, 2), (2, 3)])
def test_closed_form_matches_orbit_scan_extremal(r, d):
    px = extremal_example(r, d)
    assert fiber_bound(px)[0] == r
    for k in range(1, r + 2):
        closed, orbit = _columns(px, k)
        assert closed == orbit, k
    assert not any(closed)          # the column p = r


# (seed, factor, k) whose orbit scan exceeds the work guard
HMPS_REFUSED = {(37, 0, 6), (37, 0, 7), (37, 1, 6), (37, 2, 6), (37, 2, 7)}


@pytest.mark.parametrize("seed", range(60))
def test_closed_form_matches_orbit_scan_hmps_factors(seed):
    for i, px in enumerate(_hmps_instances(seed)):
        for k in range(1, fiber_bound(px)[0] + 2):
            closed, orbit = _columns(px, k)
            if orbit is None:
                assert (seed, i, k) in HMPS_REFUSED
            else:
                assert closed == orbit, (i, k)


def test_closed_form_signs_on_double_covers_of_a_triangle():
    parts = [(0, 1), (2, 3), (4, 5)]
    # the hexagon covers the triangle connectedly: over the edge {A, C}
    # the sections (0, 5), (1, 4) restrict to C in reversed order
    hexagon = make_partitioned(make_complex(
        [[0, 2], [2, 4], [1, 4], [1, 3], [3, 5], [0, 5]]), parts)
    trivial = make_partitioned(make_complex(
        [[0, 2], [2, 4], [0, 4], [1, 3], [3, 5], [1, 5]]), parts)
    for px, h, alt in ((hexagon, (1, 1), (0, 0)),
                       (trivial, (2, 2), (1, 1))):
        assert _columns(px, 2) == (alt, alt)
        page = e1_page(px)
        assert page.table == {(0, 0): h[0], (0, 1): h[1],
                              (1, 0): alt[0], (1, 1): alt[1]}
        assert unreduced_betti(project(px)) == (1, 1)
        assert check_euler(px)["holds"]
