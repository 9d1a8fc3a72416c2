from fractions import Fraction

import pytest

from leraytop import (AtomFamily, Box, BoxFamily, FrFamily, UnionFamily,
                      check_amenta, check_hl, helly_number,
                      helly_number_direct, leray_number, make_box,
                      make_fr_family, nerve, pieces_projection,
                      random_fr_family)
from leraytop import helly as helly_mod
from leraytop.core import _closed_facets, _maximal
from leraytop.helly import (FamilyError, FrValidationError, box_meet,
                            boxes_disjoint, interval_family,
                            minimal_empty_subfamilies)
from leraytop.rng import CounterRng


def triangle_sides():
    return AtomFamily({"ab": {"a", "b"}, "bc": {"b", "c"}, "ca": {"c", "a"}})


def test_box_basics():
    with pytest.raises(FamilyError):
        make_box([(1, 0)])
    b = box_meet([make_box([(0, 2), (0, 2)]), make_box([(1, 3), (1, 3)])])
    assert b.intervals == ((Fraction(1), Fraction(2)), (Fraction(1), Fraction(2)))
    assert box_meet([make_box([(0, 1)]), make_box([(2, 3)])]) is None
    assert boxes_disjoint(make_box([(0, 1)]), make_box([(2, 3)]))
    assert not boxes_disjoint(make_box([(0, 1)]), make_box([(1, 2)]))


def test_nerve_examples():
    fam = interval_family([("a", 0, 2), ("b", 1, 3), ("c", 2, 4)])
    nv = nerve(fam)
    assert nv.facets == frozenset({(0, 1, 2)})  # common point 2
    nv = nerve(triangle_sides())
    assert nv.facets == frozenset({(0, 1), (1, 2), (0, 2)})
    nv = nerve(interval_family([("only", 0, 1)]))
    assert nv.f_vector() == (1,)


def test_helly_number_examples():
    fam = interval_family([("a", 0, 1), ("b", Fraction(1, 2), 2),
                           ("c", Fraction(3, 2), 3)])
    rep = helly_number(fam)
    assert rep.helly_number == 2
    rep = helly_number(triangle_sides())
    assert rep.helly_number == 3 and set(rep.witness) == {"ab", "bc", "ca"}
    fam = interval_family([("a", 0, 2), ("b", 1, 3)])
    rep = helly_number(fam)
    assert rep.helly_number == 1 and rep.witness == ()


def test_minimal_empty_subfamilies():
    out = minimal_empty_subfamilies(triangle_sides())
    assert out == [("ab", "bc", "ca")]
    with pytest.raises(FamilyError):
        minimal_empty_subfamilies(triangle_sides(), cap=2)


def test_check_hl_examples():
    rep = check_hl(triangle_sides())
    assert rep == {"claim": "helly_leray_bound", "helly": 3,
                   "nerve_leray": 2, "bound": 3, "holds": True}
    fam = interval_family([("a", 0, 1), ("b", Fraction(1, 2), 2),
                           ("c", Fraction(3, 2), 3)])
    assert check_hl(fam)["holds"]
    assert check_hl(interval_family([("only", 0, 1)]))["holds"]


def _random_interval_family(seed, n):
    rng = CounterRng(seed)
    triples = []
    for i in range(n):
        lo = Fraction(rng.randint(16), 2)
        triples.append(("m%d" % i, lo, lo + Fraction(1 + rng.randint(8), 2)))
    return interval_family(triples)


def _random_box_family(seed, n, d):
    rng = CounterRng(seed)
    members = {}
    for i in range(n):
        iv = []
        for _ in range(d):
            lo = Fraction(rng.randint(16), 2)
            iv.append((lo, lo + Fraction(1 + rng.randint(8), 2)))
        members["m%d" % i] = Box(tuple(iv))
    return BoxFamily(d, members)


@pytest.mark.parametrize("seed", range(10))
def test_two_helly_algorithms_agree(seed):
    fam = _random_interval_family(seed, 6)
    assert helly_number(fam).helly_number == helly_number_direct(fam)
    fam = _random_box_family(seed + 100, 6, 2)
    assert helly_number(fam).helly_number == helly_number_direct(fam)
    atoms = AtomFamily({"m%d" % i: {a for a in range(6)
                                    if CounterRng(seed * 31 + i * 7 + a).uniform() < 0.5}
                        for i in range(5)})
    if all(atoms.members.values()):
        assert helly_number(atoms).helly_number == helly_number_direct(atoms)


@pytest.mark.parametrize("seed", range(8))
def test_box_nerve_leray_at_most_d(seed):
    for d in (1, 2):
        fam = _random_box_family(seed + 40 * d, 7, d)
        nv = nerve(fam)
        assert leray_number(nv) <= d
        assert check_hl(fam)["holds"]


def test_union_family_oracle():
    uf = UnionFamily(1, {
        "G1": (make_box([(0, 1)]), make_box([(2, 3)])),
        "G2": (make_box([(Fraction(1, 2), Fraction(5, 2))]),),
        "G3": (make_box([(4, 5)]),),
    })
    assert not uf.is_empty_intersection(["G1", "G2"])
    assert uf.is_empty_intersection(["G1", "G3"])


def test_make_fr_family_examples():
    base = BoxFamily(1, {
        "F1a": make_box([(0, 1)]), "F1b": make_box([(2, 3)]),
        "F2a": make_box([(Fraction(1, 2), Fraction(5, 2))]),
    })
    fr = make_fr_family(base, [("G1", ("F1a", "F1b")), ("G2", ("F2a",))], 2)
    assert fr.names == ("G1", "G2")
    assert not fr.is_empty_intersection(["G1", "G2"])
    assert len(fr._choice_boxes(["G1", "G2"])) == 2

    single = make_fr_family(
        BoxFamily(1, {"Fa": make_box([(0, 1)]), "Fb": make_box([(0, 2)])}),
        [("G1", ("Fa",)), ("G2", ("Fb",))], 1)
    assert isinstance(single, FrFamily)

    bad = BoxFamily(1, {"Fa": make_box([(0, 1)]), "Fb": make_box([(1, 2)])})
    with pytest.raises(FrValidationError):
        make_fr_family(bad, [("G1", ("Fa", "Fb"))], 2)


def test_make_fr_family_rejects_too_many_intersection_pieces():
    # two groups of 2 pieces whose intersection splits into 3 boxes
    base = BoxFamily(1, {
        "F1a": make_box([(0, 3)]), "F1b": make_box([(4, 9)]),
        "F2a": make_box([(2, 5)]), "F2b": make_box([(6, 7)]),
    })
    with pytest.raises(FrValidationError) as err:
        make_fr_family(base, [("G1", ("F1a", "F1b")),
                              ("G2", ("F2a", "F2b"))], 2)
    assert err.value.subfamily == ("G1", "G2")


def test_pieces_projection_examples():
    single = make_fr_family(
        BoxFamily(1, {"Fa": make_box([(0, 2)]), "Fb": make_box([(1, 3)])}),
        [("G1", ("Fa",)), ("G2", ("Fb",))], 1)
    px, rep = pieces_projection(single)
    assert rep["holds"] and rep["fiber_bound"] == 1

    base = BoxFamily(1, {
        "F1a": make_box([(0, 1)]), "F1b": make_box([(2, 3)]),
        "F2a": make_box([(Fraction(1, 2), Fraction(5, 2))]),
    })
    fr = make_fr_family(base, [("G1", ("F1a", "F1b")), ("G2", ("F2a",))], 2)
    px, rep = pieces_projection(fr)
    assert rep["holds"] and rep["fiber_bound"] == 2


def test_check_amenta_examples():
    single = make_fr_family(
        _random_box_family(3, 5, 2).__class__(
            2, _random_box_family(3, 5, 2).members),
        [("G%d" % i, ("m%d" % i,))
         for i in range(5)], 1)
    rep = check_amenta(single)
    assert rep["holds"] and rep["helly"] <= rep["d"] + 1

    for seed in range(6):
        fr = random_fr_family(1, 4, 2, seed)
        rep = check_amenta(fr)
        assert rep["holds"] and rep["helly"] <= 4
    for seed in range(4):
        fr = random_fr_family(2, 4, 2, seed + 50)
        rep = check_amenta(fr)
        assert rep["holds"] and rep["helly"] <= 6


def test_random_fr_family_deterministic():
    a = random_fr_family(1, 4, 2, 9)
    b = random_fr_family(1, 4, 2, 9)
    assert a.groups == b.groups
    assert all(a.base.members[p] == b.base.members[p]
               for p in a.base.members)


def test_nerve_facets_match_maximal(monkeypatch):
    # the level-wise simplex set of every test family's nerve
    seen = []

    def checked(simplices):
        simplices = list(simplices)
        out = _closed_facets(simplices)
        assert out == _maximal(simplices)
        seen.append(out)
        return out

    monkeypatch.setattr(helly_mod, "_closed_facets", checked)
    for seed in range(6):
        nerve(random_fr_family(1, 4, 2, seed))
    for seed in range(4):
        nerve(random_fr_family(2, 4, 2, seed + 50))
    assert len(seen) == 10
