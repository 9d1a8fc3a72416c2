import pytest

from leraytop import (GuardExceeded, euler_characteristic, make_complex,
                      reduced_betti, unreduced_betti)
from leraytop import homology, link
from leraytop.core import DEFAULT_SIMPLEX_GUARD
from leraytop.homology import (_boundary_rows, _chain_bases, _hollow_simplex,
                               rank_of_rows, top_nonzero_degree)
from leraytop.multiproj import extremal_example, random_complex
from leraytop.rng import CounterRng

from oracles import (boundary_complex, cross_polytope_boundary, empty_complex,
                     enumerate_complexes, hollow_simplex_by_subsets, join,
                     relabel, rp2_6, rp2_plus_two_points, rp2_suspension,
                     smith_rank, snf_reduced_betti, solid_simplex,
                     void_complex)


def torus_7():
    """The minimal 7-vertex torus triangulation (cyclic)."""
    facets = [sorted([i, (i + 1) % 7, (i + 3) % 7]) for i in range(7)]
    facets += [sorted([i, (i + 2) % 7, (i + 3) % 7]) for i in range(7)]
    return make_complex(facets)


def _dense(rows, ncols):
    return [[row.get(c, 0) for c in range(ncols)] for row in rows]


def _boundaries(X):
    """The chain bases of X and its boundary out of each degree q >= 0."""
    bases, index = _chain_bases(X, DEFAULT_SIMPLEX_GUARD)
    return bases, {q: _boundary_rows(bases, index, q)
                   for q in bases if q >= 0}


def test_boundary_matrix_examples():
    bases, matrices = _boundaries(make_complex([[0, 1]]))
    # the degree-1 boundary of the edge (0, 1) is (1) - (0); the degree-0
    # boundary is the all-ones row of the empty simplex
    assert bases[0] == ((0,), (1,))
    assert matrices[1] == [{0: -1}, {0: 1}]
    assert matrices[0] == [{0: 1, 1: 1}]
    _, matrices = _boundaries(make_complex([[0, 1], [1, 2], [0, 2]]))
    assert rank_of_rows(matrices[1]) == 2
    _, matrices = _boundaries(solid_simplex([0, 1, 2]))
    assert rank_of_rows(matrices[2]) == 1


@pytest.mark.parametrize("seed", range(5))
def test_boundary_squares_to_zero(seed):
    X = random_complex(7, 3, 0.5, seed)
    _, matrices = _boundaries(X)
    for q in sorted(matrices):
        if q + 1 not in matrices:
            continue
        upper = matrices[q + 1]
        lower = matrices[q]
        # (lower @ upper) must vanish entrywise
        for i, lrow in enumerate(lower):
            prod = {}
            for mid, v in lrow.items():
                for j, w in upper[mid].items():
                    prod[j] = prod.get(j, 0) + v * w
            assert all(x == 0 for x in prod.values()), (q, i)


def test_reduced_betti_examples():
    assert reduced_betti(make_complex([[0, 1], [1, 2], [0, 2]])).reduced == (0, 1)
    assert reduced_betti(make_complex([[0], [1]])).reduced == (1,)
    assert reduced_betti(torus_7()).reduced == (0, 2, 1)


def test_torus_against_snf_oracle():
    assert snf_reduced_betti(torus_7()) == (0, 2, 1)


def test_conventions():
    assert reduced_betti(void_complex()) == reduced_betti(void_complex())
    assert reduced_betti(void_complex()).reduced == ()
    assert reduced_betti(empty_complex()).minus_one == 1
    assert reduced_betti(make_complex([[0]])).minus_one == 0


def test_unreduced_and_euler():
    assert unreduced_betti(make_complex([[0]])) == (1,)
    assert euler_characteristic(make_complex([[0]])) == 1
    assert euler_characteristic(boundary_complex(range(4))) == 2
    ex = extremal_example(2, 2)
    assert unreduced_betti(ex.complex) == (2, 0, 0)


@pytest.mark.parametrize("seed", range(5))
def test_betti_invariant_under_relabeling(seed):
    X = random_complex(7, 3, 0.6, seed)
    rng = CounterRng(seed + 999)
    perm = rng.sample(range(7), 7)
    assert reduced_betti(relabel(X, perm)) == reduced_betti(X)


@pytest.mark.parametrize("seed", range(8))
def test_euler_from_betti_matches_face_count(seed):
    X = random_complex(8, 3, 0.5, seed)
    rb = reduced_betti(X)
    chi_betti = sum((-1) ** q * b for q, b in enumerate(unreduced_betti(X)))
    assert chi_betti == euler_characteristic(X) == rb.euler


@pytest.mark.parametrize("a", [2, 3])
@pytest.mark.parametrize("b", [2, 3])
def test_join_of_sphere_boundaries(a, b):
    # boundary(A) * boundary(B) is a sphere of dimension |A| + |B| - 3
    X = join(boundary_complex(range(a)), boundary_complex(range(b)))
    rb = reduced_betti(X).reduced
    expected = tuple(1 if q == a + b - 3 else 0 for q in range(a + b - 2))
    assert rb == expected


@pytest.mark.parametrize("seed", range(6))
def test_against_snf_oracle_random(seed):
    X = random_complex(6, 3, 0.6, seed + 50)
    assert reduced_betti(X).reduced == snf_reduced_betti(X)


@pytest.mark.parametrize("seed", range(20))
def test_rank_matches_smith_random_sparse(seed):
    rng = CounterRng(seed + 7000)
    nrows, ncols = 1 + rng.randint(12), 1 + rng.randint(12)
    density = 0.15 + 0.5 * rng.uniform()
    rows = []
    for _ in range(nrows):
        row = {}
        for c in range(ncols):
            if rng.uniform() < density:
                v = rng.randint(7) - 3
                if v:
                    row[c] = v
        rows.append(row)
    if seed % 4 == 0:  # dependent rows: append integer combinations
        for _ in range(3):
            a, b = rng.randint(nrows), rng.randint(nrows)
            x, y = rng.randint(7) - 3, rng.randint(7) - 3
            comb = {c: x * rows[a].get(c, 0) + y * rows[b].get(c, 0)
                    for c in range(ncols)}
            rows.append({c: v for c, v in comb.items() if v})
    assert rank_of_rows(rows) == smith_rank(_dense(rows, ncols))


def test_rank_on_torsion_rp2():
    X = rp2_6()
    bases, matrices = _boundaries(X)
    for q, rows in matrices.items():
        dense = _dense(rows, len(bases[q]))
        assert rank_of_rows(rows) == smith_rank(dense)
    assert rank_of_rows(matrices[2]) == 10
    assert reduced_betti(X).reduced == snf_reduced_betti(X) == (0, 0, 0)


def _check_every_above(X):
    """``top_nonzero_degree(X, above)`` is the largest degree > above of
    ``reduced_betti(X)``, for every above from -1 to dim X."""
    nonzero = [q for q, b in enumerate(reduced_betti(X).reduced) if b]
    for above in range(-1, max(X.dim, -1) + 1):
        want = max((q for q in nonzero if q > above), default=None)
        assert top_nonzero_degree(X, above) == want, (X, above)


def test_top_nonzero_degree_matches_reduced_betti_on_every_small_complex():
    # every complex on <= 5 vertices and every link in it
    for facets in enumerate_complexes(5):
        X = make_complex(facets, allow_void=True)
        for sigma in X.all_simplices(include_empty=True):
            _check_every_above(link(X, sigma))


@pytest.mark.parametrize("seed", range(30))
def test_top_nonzero_degree_matches_reduced_betti_random(seed):
    _check_every_above(random_complex(9, 4, 0.35, seed + 300))


def test_top_nonzero_degree_conventions():
    assert top_nonzero_degree(void_complex(3)) is None
    assert top_nonzero_degree(empty_complex()) is None
    assert top_nonzero_degree(make_complex([[0], [1]])) == 0
    assert top_nonzero_degree(make_complex([[0], [1]]), 0) is None
    assert top_nonzero_degree(torus_7()) == 2
    assert top_nonzero_degree(torus_7(), 2) is None
    assert top_nonzero_degree(join(torus_7(), make_complex([[0], [1]]))) == 3


def _count_exact_ranks(monkeypatch):
    calls = []

    def counting(rows):
        calls.append(len(rows))
        return rank_of_rows(rows)

    monkeypatch.setattr(homology, "rank_of_rows", counting)
    return calls


def test_top_nonzero_degree_exact_fallback_on_rp2(monkeypatch):
    # RP^2 has no hollow tetrahedron and is rationally acyclic, although
    # H_1 = Z/2: every degree is decided by exact ranks, one new rank each
    calls = _count_exact_ranks(monkeypatch)
    assert top_nonzero_degree(rp2_6()) is None
    # the boundaries out of degrees 2, 1 and 0, with 15 edge rows, 6 vertex
    # rows and the one row of the empty simplex; each rank is reused for the
    # degree below
    assert calls == [15, 6, 1]
    calls.clear()
    assert top_nonzero_degree(rp2_6(), 1) is None
    assert calls == [15]


def test_top_nonzero_degree_exact_fallback_below_the_top(monkeypatch):
    # the suspension of RP^2 is rationally acyclic: the degrees from the
    # top down take the boundaries out of degrees 3, 2, 1 and 0, with 40
    # triangle, 27 edge, 8 vertex and 1 empty-simplex rows
    calls = _count_exact_ranks(monkeypatch)
    assert top_nonzero_degree(rp2_suspension()) is None
    assert calls == [40, 27, 8, 1]
    calls.clear()
    assert top_nonzero_degree(rp2_suspension(), 2) is None
    assert calls == [40]


def test_top_nonzero_degree_matches_reduced_betti_with_torsion():
    # RP^2, its suspension, and RP^2 plus two isolated vertices
    assert reduced_betti(rp2_plus_two_points()).reduced == (2, 0, 0)
    for X in (rp2_6(), rp2_suspension(), rp2_plus_two_points()):
        _check_every_above(X)


def test_top_nonzero_degree_spends_one_rank_on_a_sphere_top(monkeypatch):
    # a simplex boundary is a hollow simplex and takes no exact rank; a
    # cross-polytope boundary has none, and its top degree d takes one
    # rank, of the boundary out of degree d (C_{d+1} = 0)
    calls = _count_exact_ranks(monkeypatch)
    for k in range(2, 6):
        assert top_nonzero_degree(boundary_complex(range(k))) == k - 2
    assert calls == []
    for k in range(2, 5):
        X = cross_polytope_boundary(k)
        assert not _hollow_simplex(X)
        assert top_nonzero_degree(X) == k - 1
    # one row per (k-2)-face: k * 2^(k-1)
    assert calls == [4, 12, 32]


def test_hollow_simplex_certifies_the_top_degree_on_every_small_complex():
    # every complex on <= 5 vertices and every link in it: the certificate
    # finds exactly the hollow (d+1)-simplices, and each one has a nonzero
    # reduced Betti number in degree d = dim
    hits = 0
    for facets in enumerate_complexes(5):
        X = make_complex(facets, allow_void=True)
        for sigma in X.all_simplices(include_empty=True):
            Y = link(X, sigma)
            hollow = _hollow_simplex(Y)
            assert hollow == hollow_simplex_by_subsets(Y), Y
            if hollow:
                hits += 1
                assert reduced_betti(Y).degree(Y.dim) != 0, Y
    assert hits


@pytest.mark.parametrize("seed", range(10))
def test_hollow_simplex_matches_subsets_random(seed):
    X = random_complex(9, 4, 0.35, seed + 300)
    assert _hollow_simplex(X) == hollow_simplex_by_subsets(X)
    for sigma in X.all_simplices():
        Y = link(X, sigma)
        assert _hollow_simplex(Y) == hollow_simplex_by_subsets(Y), Y
        if _hollow_simplex(Y):
            assert reduced_betti(Y).degree(Y.dim) != 0, Y


def test_top_nonzero_degree_guard_refuses_before_the_certificate():
    # the boundary of the 4-simplex is a hollow 4-simplex with 31
    # simplices, empty one included: the guard refuses it first
    with pytest.raises(GuardExceeded):
        top_nonzero_degree(boundary_complex(range(5)), guard=5)
    X = boundary_complex(range(5))
    with pytest.raises(GuardExceeded):
        top_nonzero_degree(X, guard=30)
    assert top_nonzero_degree(X, guard=31) == 3
    with pytest.raises(GuardExceeded):
        top_nonzero_degree(X, guard=30)
