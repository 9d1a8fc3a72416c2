from pathlib import Path

import pytest

from leraytop import homology, io_json
from leraytop import leray as leray_mod
from leraytop import (boundary_complex, check_chordal_characterization,
                      clique_complex, induced, intersection,
                      leray_by_definition, leray_by_links, leray_number,
                      link, make_complex, project, solid_simplex)
from leraytop.core import ComplexError
from leraytop.leray import check_witness
from leraytop.multiproj import (extremal_example, random_complex,
                                random_partitioned_complex)
from leraytop.rng import CounterRng

from oracles import enumerate_complexes, leray_links_unpruned


def test_definition_examples():
    for k in (1, 2, 4):
        assert leray_by_definition(solid_simplex(range(k))).value == 0
    assert leray_by_definition(make_complex([[0, 1], [1, 2], [0, 2]])).value == 2
    assert leray_by_definition(make_complex([[0], [1]])).value == 1


def test_links_examples():
    assert leray_by_links(boundary_complex(range(4))).value == 3
    path = clique_complex([(0, 1), (1, 2), (2, 3)])
    assert leray_by_links(path).value <= 1
    ex = extremal_example(2, 2)
    assert leray_by_links(ex.complex).value == 1


def test_definition_cap():
    with pytest.raises(ComplexError):
        leray_by_definition(solid_simplex(range(19)))


def test_exhaustive_agreement_small():
    # every complex on up to 4 vertices
    for facets in enumerate_complexes(4):
        X = make_complex(facets, allow_void=False) if facets != ((),) \
            else make_complex([()], allow_void=True)
        a = leray_by_definition(X)
        b = leray_by_links(X)
        assert a.value == b.value, facets
        assert check_witness(X, a) and check_witness(X, b)


@pytest.mark.parametrize("seed", range(12))
def test_agreement_random(seed):
    X = random_complex(8, 3, 0.5, seed)
    a = leray_by_definition(X)
    b = leray_by_links(X)
    assert a.value == b.value
    assert check_witness(X, a) and check_witness(X, b)


@pytest.mark.parametrize("seed", range(8))
def test_dimension_bound_and_simplex_characterization(seed):
    X = random_complex(7, 3, 0.6, seed + 30)
    L = leray_number(X)
    assert L <= X.dim + 1
    full = tuple(range(X.vertex_count))
    assert (L == 0) == (full in X.facets or X.facets == {full})


def test_simplex_characterization_both_directions():
    assert leray_number(solid_simplex(range(5))) == 0
    assert leray_number(boundary_complex(range(3))) > 0


@pytest.mark.parametrize("seed", range(6))
def test_monotone_under_induced(seed):
    X = random_complex(7, 3, 0.6, seed + 70)
    L = leray_number(X)
    rng = CounterRng(seed)
    for _ in range(10):
        size = rng.randint(X.vertex_count + 1)
        S = rng.sample(range(X.vertex_count), size)
        assert leray_number(induced(X, S)) <= L


@pytest.mark.parametrize("seed", range(8))
def test_intersection_subadditivity(seed):
    X1 = random_complex(7, 3, 0.6, seed + 200)
    X2 = random_complex(7, 3, 0.6, seed + 300)
    I = intersection(X1, X2)
    if I.is_empty() or I.is_void():
        return
    assert leray_number(I) <= leray_number(X1) + leray_number(X2)


def test_chordal_characterization_examples():
    rep = check_chordal_characterization([(0, 1), (1, 2), (2, 3), (3, 0)])
    assert rep == {"chordal": False, "leray": 2, "holds": True}
    tree = [(0, 1), (1, 2), (1, 3), (3, 4)]
    rep = check_chordal_characterization(tree)
    assert rep["chordal"] and rep["leray"] <= 1 and rep["holds"]
    k4_minus = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
    rep = check_chordal_characterization(k4_minus)
    assert rep["chordal"] and rep["leray"] <= 1 and rep["holds"]


@pytest.mark.parametrize("seed", range(20))
def test_chordal_characterization_random(seed):
    rng = CounterRng(seed + 4000)
    n = 6
    edges = [(a, b) for a in range(n) for b in range(a)
             if rng.uniform() < 0.5]
    if not edges:
        edges = [(0, 1)]
    assert check_chordal_characterization(edges, n=n)["holds"]


def test_witness_recheck_rejects_tampering():
    X = make_complex([[0, 1], [1, 2], [0, 2]])
    cert = leray_by_links(X)
    assert check_witness(X, cert)
    from leraytop import LerayCertificate
    bad = LerayCertificate(cert.value, (("link", (0,)), cert.value - 1),
                           cert.method)
    assert not check_witness(X, bad)


def test_links_match_unpruned_scan_exhaustive():
    for facets in enumerate_complexes(4):
        X = make_complex(facets, allow_void=False) if facets != ((),) \
            else make_complex([()], allow_void=True)
        cert = leray_by_links(X)
        assert (cert.value, cert.witness) == leray_links_unpruned(X), facets


@pytest.mark.parametrize("seed", range(4))
def test_links_match_unpruned_scan_partitioned(seed):
    px = random_partitioned_complex(7, [2] * 7, 3, 0.4, seed + 500)
    for X in (px.complex, project(px)):
        cert = leray_by_links(X)
        assert (cert.value, cert.witness) == leray_links_unpruned(X)


@pytest.mark.parametrize("X", [boundary_complex(range(k)) for k in (2, 3, 5)]
                         + [make_complex([[0], [1], [2]])])
def test_links_scan_stops_after_one_link_at_dim_plus_one(X, monkeypatch):
    # L(X) = dim X + 1: the link of the empty simplex (X itself) attains the
    # best possible value, so no other link is built
    calls = []

    def counting_link(X, A):
        calls.append(A)
        return link(X, A)

    monkeypatch.setattr(leray_mod, "link", counting_link)
    assert leray_by_links(X).value == X.dim + 1
    assert calls == [()]


def test_lproj_scan_certifies_without_exact_ranks(monkeypatch):
    # the 40 complexes the lproj benchmark's default seed scans (X and
    # pi(X) of 20 instances): each X (14 vertices) goes to
    # top_nonzero_degree, whose mod-2 and Euler certificates leave at most
    # two exact ranks; each pi(X) (7 vertices) gets its full reduced_betti
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads
    texts = workloads.Lproj().generate(0)
    ranks, bettis, links = [], [], []
    in_betti = []

    def counted(fn, log):
        def inner(*args, **kwargs):
            log.append(args[0])
            return fn(*args, **kwargs)
        return inner

    def exact(X, guard):
        bettis.append(X)
        in_betti.append(True)
        try:
            return reduced_betti(X, guard=guard)
        finally:
            in_betti.pop()

    def rank(rows):
        if not in_betti:
            ranks.append(rows)
        return rank_of_rows(rows)

    rank_of_rows = homology.rank_of_rows
    reduced_betti = leray_mod.reduced_betti
    monkeypatch.setattr(homology, "rank_of_rows", rank)
    monkeypatch.setattr(leray_mod, "reduced_betti", exact)
    monkeypatch.setattr(leray_mod, "link", counted(link, links))
    images = []
    for text in texts:
        px = io_json.partitioned_from_json(text)
        images.append(project(px))
        for X in (px.complex, images[-1]):
            leray_by_links(X)
    assert len(links) == 40
    assert len(ranks) <= 2
    assert bettis == images


def test_certified_branch_matches_unpruned_scan(monkeypatch):
    # every link through top_nonzero_degree, none through reduced_betti
    monkeypatch.setattr(leray_mod, "_EXACT_LINK_VERTICES", -1)
    monkeypatch.setattr(leray_mod, "reduced_betti", None)
    corpus = [make_complex(facets, allow_void=False) if facets != ((),)
              else make_complex([()], allow_void=True)
              for facets in enumerate_complexes(4)]
    corpus += [random_complex(8, 3, 0.5, seed) for seed in range(12)]
    for X in corpus:
        cert = leray_by_links(X)
        assert (cert.value, cert.witness) == leray_links_unpruned(X), X
