import pytest

from leraytop import (ComplexError, GuardExceeded, boundary_complex,
                      clique_complex, empty_complex, induced, intersection,
                      is_chordal, is_isomorphism, join, link, make_complex,
                      reduced_betti, solid_simplex, subdivision, union,
                      upper_interval, void_complex)
from leraytop.core import _closed_facets, _maximal, as_simplex
from leraytop.multiproj import random_complex
from leraytop.rng import CounterRng

from oracles import (all_faces, enumerate_complexes, link_facets_by_maximal,
                     maximal_by_pairs)


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


def test_induced_examples():
    ht = hollow_triangle()
    edge = induced(ht, {0, 1})
    assert edge.facets == frozenset({(0, 1)})
    assert edge.parent_map == (0, 1)
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
    assert hexagon.f_vector() == (6, 6)
    assert reduced_betti(hexagon).reduced == (0, 1)
    point = subdivision(make_complex([[0]]))
    assert point.facets == frozenset({(0,)})
    with pytest.raises(ComplexError):
        subdivision(void_complex())


def test_upper_interval_examples():
    solid = solid_simplex([0, 1, 2])
    D, Dd = upper_interval(solid, [0])
    assert D.vertex_count == 4 and Dd.vertex_count == 3
    assert set(D.labels) == {(0,), (0, 1), (0, 2), (0, 1, 2)}
    # top simplex: D a point, strict part void
    D, Dd = upper_interval(solid, [0, 1, 2])
    assert D.f_vector() == (1,) and Dd.is_void()
    D, Dd = upper_interval(solid, [0, 1])
    assert D.f_vector() == (2, 1) and Dd.f_vector() == (1,)
    with pytest.raises(ComplexError):
        upper_interval(solid, [0, 3])


@pytest.mark.parametrize("seed", range(4))
def test_strict_interval_is_subdivided_link(seed):
    K = random_complex(6, 3, 0.6, seed)
    for sigma in K.all_simplices():
        _, Dd = upper_interval(K, sigma)
        lk = link(K, sigma)
        if lk.is_empty():
            assert Dd.is_void()
            continue
        sd = subdivision(lk)
        # explicit isomorphism tau -> tau minus sigma, expressed on labels
        sset = set(sigma)
        sd_index = {lab: i for i, lab in enumerate(sd.labels)}
        vmap = {i: sd_index[tuple(v for v in lab if v not in sset)]
                for i, lab in enumerate(Dd.labels)}
        assert is_isomorphism(Dd, sd, vmap)


@pytest.mark.parametrize("seed", range(4))
def test_closed_interval_acyclic(seed):
    K = random_complex(6, 3, 0.6, seed + 10)
    for sigma in K.all_simplices():
        D, _ = upper_interval(K, sigma)
        assert all(b == 0 for b in reduced_betti(D).reduced)


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
    with pytest.raises(ComplexError):
        clique_complex([(0, 0)])


def test_clique_complex_isolated_vertices():
    X = clique_complex([(0, 1)], n=4)
    assert X.facets == frozenset({(0, 1), (2,), (3,)})


def test_closed_facets_match_maximal_on_small_complexes():
    for facets in enumerate_complexes(4):
        for faces in (all_faces(facets), all_faces(facets, True)):
            assert _closed_facets(faces) == _maximal(faces)


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
