import pytest

from leraytop import (boundary_complex, boundary_matrices, empty_complex,
                      euler_characteristic, join, make_complex, reduced_betti,
                      solid_simplex, unreduced_betti, void_complex)
from leraytop.homology import rank_of_rows
from leraytop.multiproj import extremal_example, random_complex
from leraytop.rng import CounterRng

from oracles import smith_rank, snf_reduced_betti


def torus_7():
    """The minimal 7-vertex torus triangulation (cyclic)."""
    facets = [sorted([i, (i + 1) % 7, (i + 3) % 7]) for i in range(7)]
    facets += [sorted([i, (i + 2) % 7, (i + 3) % 7]) for i in range(7)]
    return make_complex(facets)


def rp2_6():
    """The 6-vertex real projective plane: H_1 = Z/2, rationally acyclic."""
    facets = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 2),
              (2, 3, 5), (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4)]
    return make_complex([[v - 1 for v in f] for f in facets])


def _dense(rows, ncols):
    return [[row.get(c, 0) for c in range(ncols)] for row in rows]


def test_boundary_matrix_examples():
    cb = boundary_matrices(make_complex([[0, 1]]))
    # the degree-1 boundary has entries -1, +1 in its single column
    col = sorted(row.get(0, 0) for row in cb.matrices[1])
    assert col == [-1, 1]
    cb = boundary_matrices(make_complex([[0, 1], [1, 2], [0, 2]]))
    assert rank_of_rows(cb.matrices[1]) == 2
    cb = boundary_matrices(solid_simplex([0, 1, 2]))
    assert rank_of_rows(cb.matrices[2]) == 1


@pytest.mark.parametrize("seed", range(5))
def test_boundary_squares_to_zero(seed):
    X = random_complex(7, 3, 0.5, seed)
    cb = boundary_matrices(X)
    for q in sorted(cb.matrices):
        if q + 1 not in cb.matrices:
            continue
        upper = cb.matrices[q + 1]
        lower = cb.matrices[q]
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
    assert reduced_betti(X.relabel(perm)) == reduced_betti(X)


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
    cb = boundary_matrices(X)
    for q, rows in cb.matrices.items():
        assert rank_of_rows(rows) == smith_rank(_dense(rows, cb.dim_chain(q)))
    # over F_2 the rank of the 2-boundary drops to 9; over Q it is 10
    assert rank_of_rows(cb.matrices[2]) == 10
    assert reduced_betti(X).reduced == snf_reduced_betti(X) == (0, 0, 0)
