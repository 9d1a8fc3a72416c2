import gc
from itertools import product

import pytest

from leraytop import (ComplexError, GuardExceeded, check_intersection_bound,
                      check_mps_vanishing, check_projection_theorem,
                      extremal_example, fiber_bound, generalized_mpc, induced,
                      make_complex, multiple_point_complex, project,
                      random_partitioned_complex, reduced_betti)
from leraytop import multiproj
from leraytop.cli import _hmps_instances, _lproj_instance
from leraytop.core import (SimplicialComplex, _closed_facets, _maximal,
                           make_complex as _mk)
from leraytop.multiproj import (_check_vertex_bound, _section_table,
                                make_partitioned, random_complex)
from leraytop.icss import e1_page
from leraytop.rng import CounterRng

from oracles import (act_on_simplex, boundary_complex, contains, f_vector,
                     fiber_bound_by_sections, is_isomorphism, leray_number,
                     mpc_by_sections, relabel, section_table_by_sorting,
                     solid_simplex, sym_action)


def two_points_one_part():
    return make_partitioned(make_complex([[0], [1]]), [(0, 1)])


def singleton_px(X):
    return make_partitioned(X, [(v,) for v in range(X.vertex_count)])


def test_make_partitioned_errors():
    X = make_complex([[0, 1]])
    with pytest.raises(ComplexError):
        make_partitioned(X, [(0, 1)])  # edge inside one part
    with pytest.raises(ComplexError):
        make_partitioned(X, [(0,)])  # not a cover
    with pytest.raises(ComplexError):
        make_partitioned(X, [(0,), (1,), ()])  # empty part


def test_project_examples():
    X = random_complex(5, 2, 0.7, 1)
    px = singleton_px(X)
    assert project(px).facets == X.facets
    assert project(two_points_one_part()).facets == frozenset({(0,)})
    assert project(extremal_example(2, 2)) == boundary_complex(range(4))


def test_fiber_bound_examples():
    X = random_complex(5, 2, 0.7, 2)
    assert fiber_bound(singleton_px(X))[0] == 1
    r, witness = fiber_bound(two_points_one_part())
    assert r == 2 and witness == (0,)
    for rr, dd in [(2, 2), (3, 2), (2, 3)]:
        assert fiber_bound(extremal_example(rr, dd))[0] == rr


@pytest.mark.parametrize("seed", range(8))
def test_fiber_bound_matches_sections_reference(seed):
    rng = CounterRng(seed + 1300)
    sizes = [1 + rng.randint(3) for _ in range(5)]
    px = random_partitioned_complex(5, sizes, 3, 0.5, seed + 1300)
    assert fiber_bound(px) == fiber_bound_by_sections(px)
    # parts that are not runs of consecutive ids
    n = px.complex.vertex_count
    perm = rng.sample(range(n), n)
    moved = make_partitioned(relabel(px.complex, perm),
                             [[perm[v] for v in p] for p in px.parts])
    assert fiber_bound(moved) == fiber_bound_by_sections(moved)


@pytest.mark.parametrize("r,d", [(2, 2), (3, 2), (2, 3)])
def test_fiber_bound_witness_breaks_ties_like_reference(r, d):
    # every vertex and many simplices attain r here
    px = extremal_example(r, d)
    assert fiber_bound(px) == fiber_bound_by_sections(px)


def test_fiber_bound_guard_refuses_past_the_simplex_count():
    # X's list with the empty simplex has n entries: guard n passes and
    # guard n - 1 refuses, for a fresh complex and for a stored list
    cases = [extremal_example(2, 2), two_points_one_part()]
    cases += [random_partitioned_complex(4, [2, 3, 1, 2], 3, 0.5, seed)
              for seed in range(4)]
    for px in cases:
        X = px.complex
        n = len(X.all_simplices(include_empty=True))
        px = make_partitioned(SimplicialComplex(X.vertex_count, X.facets),
                              px.parts)
        with pytest.raises(GuardExceeded):
            fiber_bound(px, guard=n - 1)
        assert fiber_bound(px, guard=n) == fiber_bound_by_sections(px)
        with pytest.raises(GuardExceeded):
            fiber_bound(px, guard=n - 1)


def test_projection_check_passes_its_guard_to_fiber_bound(monkeypatch):
    guards = []

    def spy(px, guard):
        guards.append(guard)
        return fiber_bound(px, guard=guard)

    monkeypatch.setattr(multiproj, "fiber_bound", spy)
    rep = check_projection_theorem(extremal_example(2, 2), guard=3_000_000)
    assert rep["holds"] and guards == [3_000_000]


def _padded_past_default_guard(px):
    """A fresh copy of px whose X has a stored simplex list of 2,000,001
    entries, longer than the default guard: X's own simplices, then copies
    of the empty simplex.  The section table files the copies under the
    empty image simplex, which no other factor has."""
    X = SimplicialComplex(px.complex.vertex_count, px.complex.facets)
    own = X.all_simplices(include_empty=True)
    X._simplex_cache = own + [()] * (2_000_001 - len(own))
    return make_partitioned(X, px.parts)


def test_generalized_mpc_passes_its_guard_to_the_section_table():
    px = extremal_example(2, 2)
    padded = _padded_past_default_guard(px)
    with pytest.raises(GuardExceeded,
                       match="simplex enumeration exceeds guard 2000000"):
        generalized_mpc([px, padded], guard=2_000_000)
    M = generalized_mpc([px, padded], guard=3_000_000)
    assert M.complex.facets == generalized_mpc([px, px]).complex.facets


def test_e1_page_passes_its_guard_to_the_section_table():
    padded = _padded_past_default_guard(extremal_example(2, 2))
    with pytest.raises(GuardExceeded,
                       match="simplex enumeration exceeds guard 2000000"):
        e1_page(padded, guard=2_000_000)
    # the enumeration passes; the 2,000,000 sections over the empty image
    # simplex put M_2 over the guard
    with pytest.raises(GuardExceeded, match="multiple-point simplex count "
                                            "exceeds guard 3000000"):
        e1_page(padded, guard=3_000_000)


def test_section_table_is_built_once_and_keeps_the_guard(monkeypatch):
    # fiber_bound, generalized_mpc and e1_page share the table stored on
    # px, and each still refuses a guard below X's simplex count, as
    # building the table would
    px = extremal_example(2, 2)
    n = len(px.complex.all_simplices(include_empty=True))
    built = []
    inner = multiproj._section_table
    monkeypatch.setattr(multiproj, "_section_table",
                        lambda *args: built.append(1) or inner(*args))
    fiber_bound(px)
    generalized_mpc([px, px])
    e1_page(px)
    assert len(built) == 1
    for call in (fiber_bound, e1_page,
                 lambda px, guard: generalized_mpc([px, px], guard)):
        with pytest.raises(GuardExceeded, match="^simplex enumeration "
                                                "exceeds guard %d$" % (n - 1)):
            call(px, guard=n - 1)
    assert len(built) == 1


def test_fiber_bound_one_means_iso():
    for seed in range(5):
        px = random_partitioned_complex(4, [2, 1, 2, 1], 2, 0.5, seed)
        r, _ = fiber_bound(px)
        if r != 1:
            continue
        Y = project(px)
        owner = px.part_of()
        vmap = {v: owner[v] for v in px.complex.used_vertices()}
        assert is_isomorphism(px.complex, Y, vmap)


def test_mpc_k1_is_x():
    X = random_complex(5, 2, 0.6, 3)
    px = singleton_px(X)
    M = multiple_point_complex(px, 1)
    vmap = {i: t[0] for i, t in enumerate(M.tuples)}
    assert is_isomorphism(M.complex, X, vmap)


def test_mpc_two_points_k2():
    M = multiple_point_complex(two_points_one_part(), 2)
    assert f_vector(M.complex) == (4,)
    assert sorted(M.tuples) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_mpc_singleton_parts_k2_is_x():
    X = random_complex(5, 2, 0.6, 4)
    px = singleton_px(X)
    M = multiple_point_complex(px, 2)
    assert M.equal_factors
    vmap = {i: t[0] for i, t in enumerate(M.tuples)}
    assert is_isomorphism(M.complex, X, vmap)


def test_generalized_mpc_singletons_is_intersection():
    from leraytop import intersection
    X1 = random_complex(5, 2, 0.7, 5)
    X2 = random_complex(5, 2, 0.7, 6)
    M = generalized_mpc([singleton_px(X1), singleton_px(X2)])
    inter = intersection(X1, X2)
    vmap = {i: t[0] for i, t in enumerate(M.tuples)}
    assert is_isomorphism(M.complex, inter, vmap)


def test_generalized_mpc_mismatched_parts():
    X = make_complex([[0], [1]])
    with pytest.raises(ComplexError):
        generalized_mpc([make_partitioned(X, [(0, 1)]),
                         make_partitioned(X, [(0,), (1,)])])


def test_generalized_mpc_void_factor():
    parts = [(0,), (1,)]
    px1 = make_partitioned(make_complex([[0, 1]]), parts)
    void = make_partitioned(SimplicialComplex(2, ()), parts)
    assert generalized_mpc([px1, void]).complex.is_void()


@pytest.mark.parametrize("seed", range(6))
def test_simplex_factor_gives_induced_subcomplex(seed):
    px = random_partitioned_complex(4, [2, 2, 1, 2], 2, 0.6, seed + 500)
    rng = CounterRng(seed)
    size = 1 + rng.randint(px.m)
    chosen = rng.sample(range(px.m), size)
    sigma = tuple(sorted(px.parts[i][rng.randint(len(px.parts[i]))]
                         for i in chosen))
    X2 = _mk([sigma], vertex_count=px.complex.vertex_count)
    px2 = make_partitioned(X2, px.parts)
    M = generalized_mpc([px, px2])
    tilde = {v for i in chosen for v in px.parts[i]}
    sub = induced(px.complex, sorted(tilde))
    local = {orig: loc for loc, orig in enumerate(sorted(tilde))}
    vmap = {j: local[M.tuples[j][0]] for j in range(M.complex.vertex_count)}
    assert is_isomorphism(M.complex, sub, vmap)


@pytest.mark.parametrize("seed", range(4))
def test_symmetric_action_closure(seed):
    px = random_partitioned_complex(3, [2, 2, 2], 2, 0.6, seed + 900)
    M = multiple_point_complex(px, 2)
    swap = sym_action(M, (1, 0))
    for f in M.complex.facets:
        image, sign = act_on_simplex(swap, f)
        assert sign != 0
        assert contains(M.complex, image)


def test_check_projection_examples():
    rep = check_projection_theorem(extremal_example(2, 2))
    assert (rep["leray_x"], rep["fiber_bound"], rep["leray_y"]) == (1, 2, 3)
    assert rep["holds"] and rep["tight"]
    X = random_complex(5, 2, 0.6, 8)
    rep = check_projection_theorem(singleton_px(X))
    assert rep["fiber_bound"] == 1 and rep["leray_y"] == rep["leray_x"]
    rep = check_projection_theorem(
        random_partitioned_complex(3, [3, 3, 3], 2, 0.5, 7))
    assert rep["holds"]


@pytest.mark.parametrize("facets", [(), ((),)], ids=["void", "empty"])
def test_check_projection_needs_a_vertex(facets):
    # r is a maximum over the points of X: with none, r = 0 and the bound
    # -1 would read as a failure of the theorem
    px = make_partitioned(SimplicialComplex(2, facets), [(0,), (1,)])
    with pytest.raises(ComplexError, match="needs X to have a vertex"):
        check_projection_theorem(px)


def test_check_mps_examples():
    parts = [(0, 1), (2, 3)]
    sim1 = make_partitioned(_mk([(0, 2)], vertex_count=4), parts)
    sim2 = make_partitioned(_mk([(1, 2)], vertex_count=4), parts)
    rep = check_mps_vanishing([sim1, sim2])
    assert rep["leray_sum"] == 0 and rep["holds"]
    px = two_points_one_part()
    rep = check_mps_vanishing([px, px])
    assert rep["leray_sum"] == 2 and rep["holds"]
    pair = [random_partitioned_complex(3, [2, 2, 2], 2, 0.5, 11),
            random_partitioned_complex(3, [2, 2, 2], 2, 0.5, 12)]
    assert check_mps_vanishing(pair)["holds"]


def test_check_mps_leray_scan_honours_the_guard(monkeypatch):
    assert len(extremal_example(2, 2).complex.all_simplices()) > 10
    px = extremal_example(2, 2)
    calls = []
    monkeypatch.setattr(multiproj, "generalized_mpc",
                        lambda *a, **k: calls.append(1))
    with pytest.raises(GuardExceeded,
                       match="^simplex enumeration exceeds guard 10$"):
        check_mps_vanishing([px, px], guard=10)
    assert not calls


def test_check_intersection_examples():
    X = random_complex(5, 2, 0.6, 13)
    assert check_intersection_bound([X, X])["holds"]
    s1 = solid_simplex(range(4))
    s2 = _mk([(0, 1, 2)], vertex_count=4)
    rep = check_intersection_bound([s1, s2])
    assert rep["leray_intersection"] == 0 and rep["holds"]
    for seed in range(5):
        Xs = [random_complex(8, 3, 0.5, seed + 700),
              random_complex(8, 3, 0.5, seed + 800)]
        assert check_intersection_bound(Xs)["holds"]


@pytest.mark.parametrize("r,d", [(2, 2), (2, 3), (3, 2)])
def test_extremal_claims(r, d):
    px = extremal_example(r, d)
    assert px.complex.vertex_count == r * r * d and px.m == r * d
    assert leray_number(px.complex) == d - 1
    assert fiber_bound(px)[0] == r
    # the image is the boundary of the (r*d-1)-simplex
    assert project(px) == boundary_complex(range(r * d))
    assert leray_number(project(px)) == r * d - 1


def test_extremal_22_structure():
    px = extremal_example(2, 2)
    assert px.complex.vertex_count == 8
    rb = reduced_betti(px.complex)
    assert rb.reduced[0] == 1  # two components
    with pytest.raises(ComplexError):
        extremal_example(0, 2)
    with pytest.raises(ComplexError):
        extremal_example(2, 1)


def test_random_generator():
    px = random_partitioned_complex(3, [2, 2, 2], 2, 0.0, 0)
    assert px.complex.dim == 0 and f_vector(px.complex) == (6,)
    px = random_partitioned_complex(4, [1] * 4, 3, 1.0, 0)
    assert px.complex.facets == frozenset({(0, 1, 2, 3)})
    a = random_partitioned_complex(3, [2, 2, 2], 2, 0.5, 1)
    b = random_partitioned_complex(3, [2, 2, 2], 2, 0.5, 1)
    assert a.complex == b.complex and a.parts == b.parts
    c = random_partitioned_complex(3, [2, 2, 2], 2, 0.5, 2)
    assert c.complex != a.complex


def test_mpc_guards(monkeypatch):
    px = random_partitioned_complex(2, [4, 4], 1, 1.0, 0)
    with monkeypatch.context() as m:
        m.setattr(multiproj, "DEFAULT_MPC_VERTEX_GUARD", 10)
        with pytest.raises(GuardExceeded):
            multiple_point_complex(px, 3)
    with pytest.raises(GuardExceeded):
        multiple_point_complex(px, 3, guard=5)


def test_vertex_bound_counts_label_entries(monkeypatch):
    # M_k stores k * sum |part|^k label entries; the power stops at the
    # guard's bit length without changing any decision
    for guard in (1, 10, 1000):
        monkeypatch.setattr(multiproj, "DEFAULT_MPC_VERTEX_GUARD", guard)
        for sizes in ((1,), (1, 1, 1, 1), (2,), (1, 3), (2, 2, 2)):
            parts = [tuple(range(n)) for n in sizes]
            for k in range(1, 40):
                refused = k * sum(n ** k for n in sizes) > guard
                try:
                    _check_vertex_bound(parts, k)
                except GuardExceeded:
                    assert refused, (guard, sizes, k)
                else:
                    assert not refused, (guard, sizes, k)


def test_mpc_refuses_a_large_k_before_listing_its_factors(monkeypatch):
    # the k-element factor list alone would hold k references
    px = make_partitioned(make_complex([[0, 1], [2, 3]]),
                          [(0,), (1,), (2,), (3,)])
    built = []
    monkeypatch.setattr(multiproj, "generalized_mpc",
                        lambda pxs, guard: built.append(len(pxs)))
    with pytest.raises(GuardExceeded,
                       match="^multiple-point vertex bound exceeds guard"):
        multiple_point_complex(px, 40000)
    assert built == []
    multiple_point_complex(px, 2)
    assert built == [2]


def test_mpc_facets_match_maximal(monkeypatch):
    # every face set generalized_mpc builds for the check-icss instances
    seen = []

    def checked(simplices):
        simplices = list(simplices)
        out = _closed_facets(simplices)
        assert out == _maximal(simplices)
        seen.append(len(simplices))
        return out

    monkeypatch.setattr(multiproj, "_closed_facets", checked)
    for seed in range(60):
        px = _lproj_instance(seed, 12)
        for k in (1, 2, 3):
            M = multiple_point_complex(px, k)
            assert len(M.complex.all_simplices()) == seen[-1]
    assert len(seen) == 180


@pytest.mark.parametrize("seed", range(4))
def test_sections_are_the_filtered_product(seed):
    px = _lproj_instance(seed, 12)
    X = px.complex
    table = _section_table(px)
    images = project(px).all_simplices()
    assert sorted(table) == sorted(images)
    for sigma in images:
        lists = [px.parts[i] for i in sigma]
        assert sorted(table[sigma]) == sorted(
            tuple(sorted(c)) for c in product(*lists) if contains(X, c))


def _section_corpus():
    """Partitioned complexes for the section-table kernels: random lproj
    instances, tight examples, parts that are not vertex intervals (the
    edge (1, 3) lies over the parts (1, 0)), and an X with no vertex."""
    pxs = [_lproj_instance(seed, 12) for seed in range(60)]
    pxs += [extremal_example(r, d) for r, d in ((2, 2), (3, 2), (2, 3))]
    pxs.append(make_partitioned(make_complex([[0, 1], [0, 2], [1, 3],
                                              [2, 3]]), ((0, 3), (1, 2))))
    pxs += [make_partitioned(SimplicialComplex(2, facets), [(0,), (1,)])
            for facets in ((), ((),))]
    return pxs


def test_section_table_matches_the_sorting_reference():
    for px in _section_corpus():
        table = _section_table(px)
        # the same keys, in the same order, with the same section lists
        assert list(table.items()) == list(
            section_table_by_sorting(px).items()), px


def test_image_read_off_the_sections_is_the_projection():
    for px in _section_corpus():
        multiproj._sections(px)
        Y, P = multiproj._image(px), project(px)
        assert (Y.vertex_count, Y.facets) == (P.vertex_count, P.facets), px
        assert Y.dim == P.dim
        assert Y.all_simplices(include_empty=True) == P.all_simplices(
            include_empty=True), px


def test_sections_leave_no_reference_cycles():
    px = extremal_example(3, 2)
    gc.collect()
    gc.disable()
    try:
        assert not generalized_mpc([px, px]).complex.is_void()
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- generalized_mpc against the per-part extension with contains -------


def _mpc_outcome(fn, pxs, guard):
    """The complex fn builds, or the type and message of its refusal."""
    try:
        M = fn(pxs, guard=guard)
    except ComplexError as exc:
        return type(exc), str(exc)
    return (M.complex.facets, M.complex.labels, M.part_of_vertex, M.tuples,
            M.equal_factors)


def _mpc_inputs(kind, args):
    """Lists of factors of one kind."""
    if kind == "lproj":
        return [[_lproj_instance(*args, 12)] * k for k in (1, 2, 3)]
    if kind == "hmps":
        return [_hmps_instances(*args)]
    if kind == "extremal":
        return [[extremal_example(*args)] * k for k in (1, 2, 3)]
    if kind == "reordered":
        # part order differs from vertex order: part 0 holds vertices 0, 3
        px, other = (make_partitioned(_mk(facets, vertex_count=4),
                                      [(0, 3), (1, 2)])
                     for facets in ([(0, 1), (0, 2), (1, 3)], [(0, 2), (2, 3)]))
        return [[px] * k for k in (1, 2, 3)] + [[px, other], [other, px]]
    parts = [(0,), (1,)]
    px = make_partitioned(make_complex([[0, 1]]), parts)
    void = make_partitioned(SimplicialComplex(2, ()), parts)
    empty = make_partitioned(SimplicialComplex(2, [()]), parts)
    # no factors, and mismatched part structures, raise ComplexError
    return [[void], [empty], [void] * 2, [empty] * 3, [px, void],
            [void, px], [px, empty], [empty, px], [empty, void], [],
            [px, make_partitioned(make_complex([[0], [1]]), [(0, 1)])]]


MPC_CASES = ([("lproj", (s,)) for s in range(60)]
             + [("hmps", (s,)) for s in range(60)]
             + [("extremal", rd) for rd in ((2, 2), (3, 2), (2, 3))]
             + [("reordered", ()), ("degenerate", ())])
MPC_IDS = ["-".join(map(str, (kind,) + args)) for kind, args in MPC_CASES]


@pytest.mark.parametrize("kind,args", MPC_CASES, ids=MPC_IDS)
def test_generalized_mpc_matches_sections_reference(kind, args, monkeypatch):
    calls = []

    def counted(simplices):
        calls.append(1)
        return _closed_facets(simplices)

    monkeypatch.setattr(multiproj, "_closed_facets", counted)
    for pxs in _mpc_inputs(kind, args):
        ref = _mpc_outcome(mpc_by_sections, pxs,
                           multiproj.DEFAULT_MPC_SIMPLEX_GUARD)
        count = (0 if isinstance(ref[0], type)
                 else len(SimplicialComplex(0, ref[0]).all_simplices()))
        for guard in (count - 1, count, count + 1):
            calls.clear()
            got = _mpc_outcome(generalized_mpc, pxs, guard)
            assert got == _mpc_outcome(mpc_by_sections, pxs, guard), guard
            if isinstance(got[0], type):
                assert not calls, guard      # refused before building
