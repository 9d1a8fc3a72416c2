from pathlib import Path

import pytest

from leraytop import homology, io_json
from leraytop import leray as leray_mod
from leraytop import (induced, intersection, leray_by_definition,
                      leray_by_links, link, make_complex, nerve,
                      pieces_projection, project, random_fr_family)
from leraytop.core import ComplexError, _vertices
from leraytop.leray import check_witness
from leraytop.multiproj import (extremal_example, random_complex,
                                random_partitioned_complex)
from leraytop.rng import CounterRng

from oracles import (boundary_complex, clique_complex, cross_polytope_boundary,
                     enumerate_complexes, is_chordal, leray_links_unpruned,
                     leray_number, rp2_6, rp2_plus_two_points, rp2_suspension,
                     solid_simplex)


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
    # G is chordal iff its clique complex has L <= 1
    c4 = [(0, 1), (1, 2), (2, 3), (3, 0)]
    assert not is_chordal(c4) and leray_number(clique_complex(c4)) == 2
    tree = [(0, 1), (1, 2), (1, 3), (3, 4)]
    assert is_chordal(tree) and leray_number(clique_complex(tree)) <= 1
    k4_minus = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
    assert is_chordal(k4_minus)
    assert leray_number(clique_complex(k4_minus)) <= 1


@pytest.mark.parametrize("seed", range(20))
def test_chordal_characterization_random(seed):
    rng = CounterRng(seed + 4000)
    n = 6
    edges = [(a, b) for a in range(n) for b in range(a)
             if rng.uniform() < 0.5]
    if not edges:
        edges = [(0, 1)]
    L = leray_number(clique_complex(edges, n=n))
    assert is_chordal(edges, n=n) == (L <= 1)


def test_witness_recheck_rejects_tampering():
    X = make_complex([[0, 1], [1, 2], [0, 2]])
    cert = leray_by_links(X)
    assert check_witness(X, cert)
    from leraytop import LerayCertificate
    bad = LerayCertificate(cert.value, (("link", (0,)), cert.value - 1),
                           cert.method)
    assert not check_witness(X, bad)


def test_links_match_unpruned_scan_exhaustive():
    # every complex on up to 5 vertices (7580): the facet-AND cone test
    # and strong-collapse cores skip no link the unpruned scan needs
    for facets in enumerate_complexes(5):
        X = make_complex(facets, allow_void=True)
        cert = leray_by_links(X)
        assert (cert.value, cert.witness) == leray_links_unpruned(X), facets


@pytest.mark.parametrize("d", (1, 2))
def test_links_match_unpruned_scan_on_fr_families(d):
    # the nerves and pieces complexes check_amenta scans
    for seed in range(12):
        fr = random_fr_family(d, 5, 2, seed + 10 * d)
        for X in (nerve(fr), pieces_projection(fr)[0].complex):
            cert = leray_by_links(X)
            assert (cert.value, cert.witness) == leray_links_unpruned(X), \
                (d, seed, X)


@pytest.mark.parametrize("start", range(0, 200, 50))
def test_links_match_unpruned_scan_on_clique_complexes(start):
    # clique complexes of G(10, 0.6): many cone links, and links whose
    # strong-collapse core is a point or a few points
    for seed in range(start, start + 50):
        rng = CounterRng(seed + 6000)
        edges = [(a, b) for a in range(10) for b in range(a)
                 if rng.uniform() < 0.6]
        X = clique_complex(edges, n=10)
        cert = leray_by_links(X)
        assert (cert.value, cert.witness) == leray_links_unpruned(X), seed
        assert leray_by_definition(X).value == cert.value, seed


def test_vertices_of_sigma_are_not_apexes_of_its_link():
    # lk(0) and lk(3) are cones with apexes 3 and 0, but lk(03) is two
    # points: the AND of the facets containing 03 is 03 itself, whose
    # bits are not apexes
    X = make_complex([[0, 1, 3], [0, 2, 3]])
    cert = leray_by_links(X)
    assert (cert.value, cert.witness) == (1, (("link", (0, 3)), 0))


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
    # best possible value, so no other link's core is taken
    cores = []
    monkeypatch.setattr(leray_mod, "_strong_core",
                        _counted(leray_mod._strong_core, cores))
    assert leray_by_links(X).value == X.dim + 1
    assert [sorted(map(_vertices, c)) for c in cores] == [sorted(X.facets)]


def _counted(fn, log):
    """``fn``, logging its first argument on each call."""
    def inner(*args, **kwargs):
        log.append(args[0])
        return fn(*args, **kwargs)
    return inner


def test_lproj_scan_certifies_without_exact_ranks(monkeypatch):
    # the 40 complexes the lproj benchmark's default seed scans (X and
    # pi(X) of 20 instances): each X (14 vertices) goes to
    # top_nonzero_degree, whose certificates leave at most two exact
    # ranks; each pi(X) (7 vertices) gets its full reduced_betti
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads
    texts = workloads.Lproj().generate(0)
    ranks, bettis, cores = [], [], []
    in_betti = []

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
    monkeypatch.setattr(leray_mod, "_strong_core",
                        _counted(leray_mod._strong_core, cores))
    images = []
    for text in texts:
        px = io_json.partitioned_from_json(text)
        images.append(project(px))
        for X in (px.complex, images[-1]):
            leray_by_links(X)
    # one core per scan, of lk(()) = the complex itself
    assert len(cores) == 40
    assert len(ranks) <= 2
    assert bettis == images


def test_lproj_scan_certifies_by_hollow_simplices(monkeypatch):
    # each of the 20 X of the lproj benchmark's default seed contains a
    # hollow 4-simplex, so top_nonzero_degree answers dim X = 3 without a
    # chain basis
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads
    hollow = []
    hollow_simplex = homology._hollow_simplex

    def counted_hollow(X):
        hollow.append(hollow_simplex(X))
        return hollow[-1]

    monkeypatch.setattr(homology, "_hollow_simplex", counted_hollow)
    for text in workloads.Lproj().generate(0):
        px = io_json.partitioned_from_json(text)
        for X in (px.complex, project(px)):
            leray_by_links(X)
    assert hollow == [True] * 20


def test_helly_amenta_scan_builds_few_links(monkeypatch):
    # the 70 complexes the helly-amenta benchmark's default seed scans (a
    # nerve and a pieces complex per instance): most links are cones, told
    # by the AND of the facet bitmasks without being built, and the rest
    # are reduced to their strong-collapse cores on bitmasks.  Only a core
    # that can beat the running best becomes a tuple complex, for homology
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads
    from leraytop import helly
    wl = workloads.HellyAmenta()
    scans, links, cores, homologies, ranks = [], [], [], [], []
    monkeypatch.setattr(helly, "leray_by_links",
                        _counted(leray_by_links, scans))
    monkeypatch.setattr(leray_mod, "link", _counted(link, links))
    monkeypatch.setattr(leray_mod, "_strong_core",
                        _counted(leray_mod._strong_core, cores))
    for name in ("reduced_betti", "top_nonzero_degree"):
        monkeypatch.setattr(leray_mod, name,
                            _counted(getattr(leray_mod, name), homologies))
    monkeypatch.setattr(homology, "rank_of_rows",
                        _counted(homology.rank_of_rows, ranks))
    for text in wl.generate(0):
        wl.run(text)
    assert len(scans) == 70
    assert (len(links), len(cores), len(homologies)) == (0, 706, 75)
    assert len(ranks) <= 119


def test_certified_branch_matches_unpruned_scan(monkeypatch):
    # every link through top_nonzero_degree, none through reduced_betti
    monkeypatch.setattr(leray_mod, "_EXACT_LINK_VERTICES", -1)
    monkeypatch.setattr(leray_mod, "reduced_betti", None)
    corpus = [make_complex(facets, allow_void=False) if facets != ((),)
              else make_complex([()], allow_void=True)
              for facets in enumerate_complexes(4)]
    corpus += [random_complex(8, 3, 0.5, seed) for seed in range(12)]
    # no hollow simplex at the top, or torsion: exact ranks decide these
    corpus += [cross_polytope_boundary(k) for k in range(2, 6)]
    corpus += [rp2_6(), rp2_suspension(), rp2_plus_two_points()]
    for X in corpus:
        cert = leray_by_links(X)
        assert (cert.value, cert.witness) == leray_links_unpruned(X), X
