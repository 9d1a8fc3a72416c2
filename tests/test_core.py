from itertools import combinations

import pytest

from leraytop import (ComplexError, GuardExceeded, induced, intersection,
                      link, make_complex, reduced_betti, subdivision)
from leraytop import core
from leraytop.core import (SimplicialComplex, _bits, _closed_facets,
                           _maximal, _minimal_non_faces, _strong_core,
                           _vertices, as_simplex)
from leraytop.multiproj import random_complex
from leraytop.rng import CounterRng

from oracles import (all_faces, all_simplices_by_one_set, boundary_complex,
                     clique_complex, contains, empty_complex,
                     enumerate_complexes, f_vector, is_chordal, join,
                     link_facets_by_maximal, maximal_by_pairs,
                     minimal_empty_by_scan, solid_simplex, union,
                     void_complex)


def hollow_triangle():
    return make_complex([[0, 1], [1, 2], [0, 2]])


def test_make_complex_examples():
    ht = hollow_triangle()
    assert len(ht.facets) == 3 and ht.vertex_count == 3
    absorbed = make_complex([[0, 1, 2], [0, 1]])
    assert absorbed.facets == frozenset({(0, 1, 2)})
    two = make_complex([[0], [1]])
    assert two.facets == frozenset({(0,), (1,)})


def test_make_complex_errors():
    with pytest.raises(ComplexError):
        make_complex([[-1, 0]])
    with pytest.raises(ComplexError):
        make_complex([])
    assert make_complex([], allow_void=True).is_void()
    with pytest.raises(ComplexError):
        as_simplex([0, 0])


def test_void_vs_empty_distinct():
    assert void_complex() != empty_complex()
    assert empty_complex().is_empty() and not empty_complex().is_void()


def test_stored_simplex_list_still_checks_the_guard():
    # 8 simplices with the empty one; the first call stores the list
    X = solid_simplex(range(3))
    assert len(X.all_simplices(include_empty=True)) == 8
    assert len(X.all_simplices(guard=8)) == 7
    with pytest.raises(GuardExceeded,
                       match="^simplex enumeration exceeds guard 7$"):
        X.all_simplices(guard=7)


def _enumeration_cases():
    """The corpus of complexes on at most 5 vertices, random complexes on 9,
    and a void, an empty and a one-vertex complex."""
    cases = [make_complex(facets, allow_void=True)
             for facets in enumerate_complexes(5)]
    cases += [random_complex(9, 4, 0.35, seed) for seed in range(12)]
    return cases + [void_complex(3), empty_complex(2), make_complex([[0]])]


def test_all_simplices_matches_one_set_reference():
    for X in _enumeration_cases():
        want = all_simplices_by_one_set(X)
        assert X.all_simplices(include_empty=True) == want, X
        assert X.all_simplices() == want[1:], X


def test_all_simplices_guard_refuses_past_the_count_fresh_and_cached():
    # with the empty simplex the list has n entries: guard n passes and
    # guard n - 1 refuses, when the list is enumerated and when it is stored
    cases = _enumeration_cases()
    for X in cases[:-15:97] + cases[-15:]:
        n = len(all_simplices_by_one_set(X))
        Y = SimplicialComplex(X.vertex_count, X.facets)
        if n == 0:
            assert Y.all_simplices(guard=0) == []
            continue
        with pytest.raises(GuardExceeded):
            Y.all_simplices(guard=n - 1)
        assert len(Y.all_simplices(include_empty=True, guard=n)) == n
        assert len(Y.all_simplices(include_empty=True, guard=n)) == n
        with pytest.raises(GuardExceeded):
            Y.all_simplices(guard=n - 1)


def test_guard_refuses_a_large_facet_before_building_a_face(monkeypatch):
    # the 2^20 faces of a simplex on 20 vertices alone pass guard 10, so
    # none is built
    built = []

    def counting(facet, q):
        for face in combinations(facet, q):
            built.append(face)
            yield face

    X, Y = solid_simplex(range(20)), solid_simplex(range(3))
    monkeypatch.setattr(core, "combinations", counting)
    with pytest.raises(GuardExceeded,
                       match="^simplex enumeration exceeds guard 10$"):
        X.all_simplices(guard=10)
    assert built == []
    # a facet whose faces fit goes through the counted enumeration
    assert len(Y.all_simplices(guard=10)) == 7
    assert len(built) == 8


def test_dim_is_the_largest_facet_size_minus_one():
    for X in _enumeration_cases():
        want = max(len(f) for f in X.facets) - 1 if X.facets else -2
        assert X.dim == want, X
    assert (void_complex(3).dim, empty_complex(2).dim) == (-2, -1)


def test_induced_examples():
    ht = hollow_triangle()
    edge = induced(ht, {0, 1})
    assert edge.facets == frozenset({(0, 1)})
    # local vertex i is the i-th smallest id of S
    assert induced(make_complex([[0, 1], [2, 3]]), {3, 2, 0}).facets == \
        frozenset({(0,), (1, 2)})
    assert induced(ht, range(3)) == ht
    assert induced(ht, set()).is_empty()
    with pytest.raises(ComplexError):
        induced(ht, {0, 7})


def test_induced_composition():
    X = random_complex(7, 3, 0.6, 42)
    S = (0, 2, 3, 5, 6)
    inner = induced(X, S)
    # re-express a sub-subset in inner's local ids
    Sp = (0, 3, 6)
    local = [S.index(v) for v in Sp]
    assert induced(inner, local).facets == induced(X, Sp).facets


def test_link_examples():
    ht = hollow_triangle()
    assert link(ht, [0]).facets == frozenset({(1,), (2,)})
    assert link(solid_simplex([0, 1, 2]), [0, 1]).facets == frozenset({(2,)})
    assert link(ht, []) == ht
    with pytest.raises(ComplexError):
        link(ht, [0, 1, 2])


def test_link_refuses_a_missing_simplex_with_the_same_message():
    ht = hollow_triangle()
    for X, A in ((ht, [0, 1, 2]), (ht, [7]), (void_complex(3), [0]),
                 (void_complex(3), [])):
        with pytest.raises(ComplexError) as err:
            link(X, A)
        assert str(err.value) == "simplex %r not in complex" % (
            as_simplex(A),)
    assert link(empty_complex(2), []) == empty_complex(2)
    assert link(ht, [2]).facets == frozenset({(0,), (1,)})


@pytest.mark.parametrize("seed", range(6))
def test_link_facets_need_no_maximality_filter(seed):
    X = random_complex(8, 4, 0.5, seed + 900)
    for sigma in X.all_simplices(include_empty=True):
        assert link(X, sigma).facets == link_facets_by_maximal(X, sigma)


def test_link_of_cone_point():
    X = random_complex(5, 2, 0.7, 3)
    cone = join(solid_simplex([0]), X)
    assert link(cone, [0]).facets == frozenset(
        tuple(v + 1 for v in f) for f in X.facets)


def _core_of(X):
    """The strong core of X as a complex, or X itself when ``_strong_core``
    hands back X's facet bitmasks unchanged."""
    facets = [_bits(f) for f in X.facets]
    core = _strong_core(facets)
    if core is facets:
        return X
    return SimplicialComplex(X.vertex_count, map(_vertices, core))


def test_strong_core_examples():
    ht = hollow_triangle()
    # no vertex of a cycle is dominated, so the complex comes back as is
    assert _core_of(ht) is ht
    assert _core_of(solid_simplex(range(4))).facets == {(3,)}
    assert _core_of(make_complex([[0, 1], [0, 2]])).facets == {(0,)}
    whisker = make_complex([[0, 1], [1, 2], [0, 2], [2, 3]])
    assert _core_of(whisker).facets == ht.facets
    assert _core_of(make_complex([[0], [1]])).facets == {(0,), (1,)}
    for X in (empty_complex(2), void_complex(2)):
        assert _core_of(X) is X
    assert [_vertices(_bits(s)) for s in ((), (0,), (1, 4, 6))] == \
        [(), (0,), (1, 4, 6)]


def test_strong_core_on_every_small_complex():
    # the core is the induced subcomplex on the vertices it keeps, no
    # vertex of it is dominated, and it has the reduced homology of X
    for facets in enumerate_complexes(5):
        X = make_complex(facets, allow_void=True)
        core = _core_of(X)
        kept = core.used_vertices()
        assert core.facets == _maximal(
            tuple(v for v in f if v in kept) for f in X.facets), facets
        for v in kept:
            star = [set(f) for f in core.facets if v in f]
            assert set.intersection(*star) == {v}, (facets, v)
        if kept == X.used_vertices():
            assert core is X
        b, c = reduced_betti(X), reduced_betti(core)
        assert ([b.degree(q) for q in range(-1, 5)]
                == [c.degree(q) for q in range(-1, 5)]), facets


def test_join_examples():
    two = make_complex([[0], [1]])
    circle = join(two, two)
    assert reduced_betti(circle).reduced == (0, 1)
    cone = join(solid_simplex([0]), hollow_triangle())
    assert all(b == 0 for b in reduced_betti(cone).reduced)
    susp = join(boundary_complex([0, 1]), make_complex([[0, 1]]))
    assert all(b == 0 for b in reduced_betti(susp).reduced)


def test_boundary_complex():
    assert boundary_complex([0, 1]).facets == frozenset({(0,), (1,)})
    assert reduced_betti(boundary_complex(range(3))).reduced == (0, 1)
    assert reduced_betti(boundary_complex(range(4))).reduced == (0, 0, 1)
    with pytest.raises(ComplexError):
        boundary_complex([])


def test_union_intersection_examples():
    ht = hollow_triangle()
    assert union(ht, ht) == ht
    path = union(make_complex([[0, 1]], vertex_count=3),
                 make_complex([[1, 2]], vertex_count=3))
    assert path.facets == frozenset({(0, 1), (1, 2)})
    solid = solid_simplex([0, 1, 2])
    assert intersection(solid, ht) == ht
    a = make_complex([[0, 1], [1, 2]])
    b = make_complex([[0, 1], [0, 2]])
    assert intersection(a, b).facets == frozenset({(0, 1), (2,)})
    with pytest.raises(ComplexError):
        union(ht, solid_simplex([0, 1, 2, 3]))


@pytest.mark.parametrize("seed", range(6))
def test_union_intersection_against_bruteforce(seed):
    X1 = random_complex(8, 3, 0.5, seed)
    X2 = random_complex(8, 3, 0.5, seed + 100)
    u = union(X1, X2)
    i = intersection(X1, X2)
    f1 = all_faces(X1.facets, include_empty=True)
    f2 = all_faces(X2.facets, include_empty=True)
    assert all_faces(u.facets, include_empty=True) == f1 | f2
    assert all_faces(i.facets, include_empty=True) == f1 & f2


def test_subdivision_examples():
    edge = subdivision(make_complex([[0, 1]]))
    assert edge.vertex_count == 3 and len(edge.facets) == 2
    hexagon = subdivision(hollow_triangle())
    assert f_vector(hexagon) == (6, 6)
    assert reduced_betti(hexagon).reduced == (0, 1)
    point = subdivision(make_complex([[0]]))
    assert point.facets == frozenset({(0,)})
    with pytest.raises(ComplexError):
        subdivision(void_complex())
    # subdivision keeps the homology of a complex and of each nonempty link
    for seed in (0, 1, 2, 3, 10, 11, 12, 13):
        K = random_complex(6, 3, 0.6, seed)
        for sigma in [()] + K.all_simplices():
            lk = link(K, sigma)
            if not lk.is_empty():
                assert (reduced_betti(subdivision(lk)).reduced
                        == reduced_betti(lk).reduced), (seed, sigma)


def test_contains_matches_the_simplex_list():
    complexes = [make_complex(facets, vertex_count=5)
                 for facets in enumerate_complexes(5)]
    complexes += [void_complex(5), empty_complex(5)]
    subsets = [c for q in range(6) for c in combinations(range(5), q)]
    for X in complexes:
        simplices = set(X.all_simplices(include_empty=True))
        for s in subsets:
            # s is sorted and s[::-1] is not
            expected = s in simplices
            assert contains(X, s) == contains(X, s[::-1]) == expected, (X, s)


def test_clique_complex_examples():
    c4 = clique_complex([(0, 1), (1, 2), (2, 3), (3, 0)])
    assert c4.facets == frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})
    assert not is_chordal([(0, 1), (1, 2), (2, 3), (3, 0)])
    path = clique_complex([(0, 1), (1, 2)])
    assert path.facets == frozenset({(0, 1), (1, 2)})
    assert is_chordal([(0, 1), (1, 2)])
    k4 = clique_complex([(a, b) for a in range(4) for b in range(a)])
    assert k4.facets == frozenset({(0, 1, 2, 3)})
    assert is_chordal([(a, b) for a in range(4) for b in range(a)])


def test_clique_complex_isolated_vertices():
    X = clique_complex([(0, 1)], n=4)
    assert X.facets == frozenset({(0, 1), (2,), (3,)})


def test_closed_facets_match_maximal_on_small_complexes():
    for facets in enumerate_complexes(4):
        for faces in (all_faces(facets), all_faces(facets, True)):
            assert _closed_facets(faces) == _maximal(faces)


def test_minimal_non_faces_match_the_subset_scan_on_every_small_complex():
    # minimal non-faces of every size, on every complex on at most 5
    # vertices; the empty complex's are the five vertices
    names = range(5)
    for facets in enumerate_complexes(5):
        faces = [_bits(s) for s in all_faces(facets, include_empty=True)]
        found = sorted(map(_vertices, _minimal_non_faces(faces, 31)),
                       key=lambda c: (len(c), c))
        X = SimplicialComplex(5, facets)
        assert found == minimal_empty_by_scan(names, X), facets


def test_maximal_matches_pairwise_on_every_small_complex():
    for facets in enumerate_complexes(5):
        faces = all_faces(facets, include_empty=True)
        for cands in (facets, faces, list(facets) + [()]):
            assert _maximal(cands) == maximal_by_pairs(cands), facets


@pytest.mark.parametrize("seed", range(40))
def test_maximal_matches_pairwise_on_random_candidates(seed):
    rng = CounterRng(seed + 3000)
    n = 1 + rng.randint(9)
    cands = []
    for _ in range(rng.randint(30)):
        size = rng.randint(min(n, 6) + 1)
        cands.append(tuple(sorted(rng.sample(range(n), size))))
    # duplicates and the empty simplex among the candidates
    cands += cands[:rng.randint(len(cands) + 1)]
    if seed % 3 == 0:
        cands.append(())
    assert _maximal(cands) == maximal_by_pairs(cands)
    assert _maximal(cands[::-1]) == maximal_by_pairs(cands)
