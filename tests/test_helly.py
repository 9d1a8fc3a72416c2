from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest

from leraytop import (Box, BoxFamily, FrFamily, SimplicialComplex,
                      UnionFamily, check_amenta, check_hl,
                      fiber_bound, helly_number, helly_number_direct,
                      make_box, make_fr_family,
                      make_partitioned, nerve, pieces_projection, project,
                      random_fr_family)
from leraytop import helly as helly_mod
from leraytop import core, multiproj
from leraytop.core import _maximal
from leraytop.helly import (FamilyError, FrValidationError, box_meet,
                            boxes_disjoint, minimal_empty_subfamilies)
from leraytop.rng import CounterRng

from oracles import (all_simplices_by_one_set, atom_empty_by_sets, atom_family,
                     choice_boxes_by_product, f_vector, interval_family,
                     leray_number, make_fr_family_by_product,
                     minimal_empty_by_scan, minimal_empty_by_slicing,
                     nerve_by_oracle)


@pytest.fixture(autouse=True)
def walked(monkeypatch):
    """The families that a test of this module walks, each checked after
    its walk: the facet lists it recorded are the maximal elements of its
    table's keys and of its box sets."""
    out = []
    walk = helly_mod._WalkFamily._walk

    def checked(family):
        walk(family)
        assert sorted(family._nerve_facets) == sorted(_maximal(family._faces))
        assert sorted(family._piece_facets) == \
            sorted(_maximal(family._piece_faces))
        out.append(family)

    monkeypatch.setattr(helly_mod._WalkFamily, "_walk", checked)
    return out


def triangle_sides():
    return atom_family({"ab": {"a", "b"}, "bc": {"b", "c"}, "ca": {"c", "a"}})


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
    assert f_vector(nv) == (1,)


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
    atoms = atom_family({"m%d" % i: {a for a in range(6)
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
    # A, B and C meet pairwise, each pair in a box the third lacks, so they
    # have no common point; A, B and D meet in [0, 1]
    uf = UnionFamily(1, {
        "A": (make_box([(0, 1)]), make_box([(4, 5)])),
        "B": (make_box([(0, 1)]), make_box([(8, 9)])),
        "C": (make_box([(4, 5)]), make_box([(8, 9)])),
        "D": (make_box([(1, 2)]),),
    })
    for pair in combinations("ABC", 2):
        assert not uf.is_empty_intersection(pair)
    assert uf.is_empty_intersection(["A", "B", "C"])
    assert not uf.is_empty_intersection(["A", "B", "D"])
    assert uf.is_empty_intersection(["A", "C", "D"])


def test_make_fr_family_examples():
    base = BoxFamily(1, {
        "F1a": make_box([(0, 1)]), "F1b": make_box([(2, 3)]),
        "F2a": make_box([(Fraction(1, 2), Fraction(5, 2))]),
    })
    fr = make_fr_family(base, [("G1", ("F1a", "F1b")), ("G2", ("F2a",))], 2)
    assert fr.names == ("G1", "G2")
    assert not fr.is_empty_intersection(["G1", "G2"])
    assert len(choice_boxes_by_product(fr, ["G1", "G2"])) == 2
    assert _kernel_counts(fr)[(0, 1)] == 2

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


def test_directly_built_fr_family_validates_on_first_use():
    # over {G1, G2} the meet splits into 3 > r = 2 pieces, which the walk
    # finds however the family was built
    split = BoxFamily(1, {
        "F1a": make_box([(0, 3)]), "F1b": make_box([(4, 9)]),
        "F2a": make_box([(2, 5)]), "F2b": make_box([(6, 7)]),
    })
    # group G's pieces overlap, and the walk never meets two pieces of one
    # group, so the groups are checked before it
    overlap = BoxFamily(1, {"a": make_box([(0, 2)]), "b": make_box([(1, 3)]),
                            "c": make_box([(5, 6)])})
    cases = [
        (split, (("G1", ("F1a", "F1b")), ("G2", ("F2a", "F2b"))),
         "intersection over ('G1', 'G2') splits into 3 > r pieces"),
        (overlap, (("G", ("a", "b")), ("H", ("c",))),
         "pieces 'a' and 'b' of group 'G' overlap"),
        (overlap, (("G", ("a",)), ("H", ("a", "c"))),
         "a piece occurs in two groups"),
        (overlap, (("G", ("a",)), ("H", ())), "group 'H' has no pieces"),
        (overlap, (("G", ("a", "b", "c")),),
         "group 'G' has more than r=2 pieces"),
    ]
    for base, groups, message in cases:
        with pytest.raises(FamilyError) as made:
            make_fr_family(base, groups, 2)
        assert str(made.value) == message
        for use in (nerve, lambda fr: fr.is_empty_intersection(fr.names[:1]),
                    check_amenta):
            with pytest.raises(FamilyError) as err:
                use(FrFamily(1, base, groups, 2))
            assert type(err.value) is type(made.value)
            assert str(err.value) == message
            assert getattr(err.value, "subfamily", None) == \
                getattr(made.value, "subfamily", None)


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


@pytest.mark.parametrize("r", [1, 2, 3])
def test_pieces_projection_image_is_the_group_nerve(r):
    # the image of the pieces nerve, built by project, is the nerve of the
    # grouped family: the identity check_amenta relies on for L(image)
    for seed in range(60):
        fr = random_fr_family(1 + seed % 2, 4, r, seed)
        px, _ = pieces_projection(fr)
        assert project(px) == nerve(fr), (r, seed)


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


def test_nerve_facets_match_maximal(walked):
    # ``walked`` checks the walk's facet lists on every family this module
    # walks; here on grouped families in two dimensions and on a box and a
    # union family, one of whose members has no boxes
    for seed in range(6):
        nerve(random_fr_family(1, 4, 2, seed))
    for seed in range(4):
        nerve(random_fr_family(2, 4, 2, seed + 50))
    for family, _ in _box_and_union_draw(0)[1]:
        nerve(family)
    assert len(walked) == 12


# -- the subfamily-meet table against the rational-box reference ----------


def _kernel_counts(fr):
    """{index tuple: number of choice boxes} of the family's table."""
    return {sub: len(over) for sub, over in fr._nonempty().items()}


def _small_box(rng, d, max_len=2):
    # half-integer endpoints from 0 to 6 + max_len: touching endpoints are
    # common
    out = []
    for _ in range(d):
        lo = Fraction(rng.randint(13), 2)
        out.append((lo, lo + Fraction(rng.randint(2 * max_len + 1), 2)))
    return Box(tuple(out))


def _empty_by_product(members, names):
    return all(box_meet(choice) is None
               for choice in product(*[members[n] for n in names]))


def _name_lists(rng, names, sub):
    """``sub`` as given, permuted, and with a member repeated."""
    picked = [names[i] for i in sub]
    permuted = rng.sample(picked, len(picked))
    return [picked, permuted, permuted + [picked[rng.randint(len(picked))]]]


@pytest.mark.parametrize("d", (1, 2, 3))
def test_fr_emptiness_and_counts_match_product(d):
    for seed in range(6):
        fr = random_fr_family(d, 5, 2, seed + 10 * d)
        counts = _kernel_counts(fr)
        names = fr.names
        rng = CounterRng(seed)
        for size in range(1, len(names) + 1):
            for sub in combinations(range(len(names)), size):
                ref = choice_boxes_by_product(fr, [names[i] for i in sub])
                assert counts.get(sub, 0) == len(ref)
                for listed in _name_lists(rng, names, sub):
                    assert fr.is_empty_intersection(listed) == (not ref)


def _box_and_union_draw(seed):
    """A seeded BoxFamily and UnionFamily, each with its members as lists
    of boxes, and the generator for further draws."""
    rng = CounterRng(seed + 700)
    d = 1 + seed % 3
    n = 4 + rng.randint(3)
    boxes = {"m%d" % i: _small_box(rng, d) for i in range(n)}
    # member m0 has no boxes for even seeds; others may have none too
    unions = {"m%d" % i: tuple(_small_box(rng, d) for _ in range(
        0 if i == 0 and seed % 2 == 0 else rng.randint(4))) for i in range(n)}
    return rng, ((BoxFamily(d, boxes), {k: (b,) for k, b in boxes.items()}),
                 (UnionFamily(d, unions), unions))


@pytest.mark.parametrize("seed", range(12))
def test_box_and_union_emptiness_match_product(seed):
    rng, draws = _box_and_union_draw(seed)
    for family, members in draws:
        names = family.names
        n = len(names)
        for size in range(1, n + 1):
            for sub in combinations(range(n), size):
                for listed in _name_lists(rng, names, sub):
                    assert family.is_empty_intersection(listed) == \
                        _empty_by_product(members, listed)


def _mixed_box(rng, d):
    """Endpoints k/q with q in (1, 2, 3, 4, 6), from -2 to 6: negative,
    mixed denominators, one value reached by several of them (1/2 as 2/4
    and 3/6), and length 0 to 4, so points and touching boxes are
    common."""
    out = []
    for _ in range(d):
        q = (1, 2, 3, 4, 6)[rng.randint(5)]
        lo = Fraction(rng.randint(4 * q + 1) - 2 * q, q)
        q = (1, 2, 3, 4, 6)[rng.randint(5)]
        out.append((lo, lo + Fraction(rng.randint(4 * q + 1), q)))
    return Box(tuple(out))


@pytest.mark.parametrize("seed", range(16))
def test_emptiness_matches_product_on_mixed_denominators(seed):
    rng = CounterRng(seed + 800)
    d = 1 + seed % 3
    boxes = {"m%d" % i: _mixed_box(rng, d) for i in range(5)}
    unions = {"m%d" % i: tuple(_mixed_box(rng, d)
                               for _ in range(rng.randint(4)))
              for i in range(5)}
    base = {}
    grouping = []
    for gi in range(4):
        pieces = []
        for pi in range(1 + rng.randint(2)):
            box = _mixed_box(rng, d)
            while not all(boxes_disjoint(box, base[p]) for p in pieces):
                box = _mixed_box(rng, d)
            pieces.append("F%d_%d" % (gi, pi))
            base[pieces[-1]] = box
        grouping.append(("G%d" % gi, tuple(pieces)))
    base = BoxFamily(d, base)
    fr = _validation_outcome(make_fr_family, base, grouping)
    assert fr == _validation_outcome(make_fr_family_by_product, base,
                                     grouping)
    draws = [(BoxFamily(d, boxes), {k: (b,) for k, b in boxes.items()}),
             (UnionFamily(d, unions), unions)]
    if isinstance(fr, FrFamily):
        draws.append((fr, {g: [base.members[p] for p in pieces]
                           for g, pieces in fr.groups}))
        counts = _kernel_counts(fr)
    for family, members in draws:
        for size in range(1, len(family.names) + 1):
            for sub in combinations(range(len(family.names)), size):
                listed = [family.names[i] for i in sub]
                assert family.is_empty_intersection(listed) == \
                    _empty_by_product(members, listed)
                if family is fr:
                    assert counts.get(sub, 0) == len(
                        choice_boxes_by_product(fr, listed))


def _raw_draw(seed):
    """A grouping with no validity guarantee, r = 2: 4-6 groups in d = 1 or
    2, mostly of 2 disjoint pieces, some of 1; a few groups have 0 or 3
    pieces or overlapping pieces."""
    rng = CounterRng(seed + 5000)
    d = 1 + rng.randint(2)
    base = {}
    grouping = []
    for gi in range(4 + rng.randint(3)):
        u = rng.uniform()
        count = 0 if u < 0.01 else 3 if u < 0.03 else 1 if u < 0.3 else 2
        tries = 1 if rng.uniform() < 0.05 else 20
        pieces = []
        for pi in range(count):
            for _ in range(tries):
                box = _small_box(rng, d, max_len=4)
                if all(boxes_disjoint(box, base[p]) for p in pieces):
                    break
            name = "F%d_%d" % (gi, pi)
            base[name] = box
            pieces.append(name)
        grouping.append(("G%d" % gi, tuple(pieces)))
    return BoxFamily(d, base), grouping


def _validation_outcome(make, base, grouping):
    try:
        fam = make(base, grouping, 2)
    except FamilyError as exc:
        return type(exc), str(exc), getattr(exc, "subfamily", None)
    return fam


def test_validation_matches_product_on_raw_draws():
    outcomes = {}
    for seed in range(320):
        base, grouping = _raw_draw(seed)
        got = _validation_outcome(make_fr_family, base, grouping)
        want = _validation_outcome(make_fr_family_by_product, base, grouping)
        assert got == want, seed
        kind = "accepted" if isinstance(got, FrFamily) else next(
            k for k in ("splits", "overlap", "more than", "no pieces")
            if k in got[1])
        outcomes[kind] = outcomes.get(kind, 0) + 1
    # every outcome, with many subfamilies split into more than r pieces
    assert len(outcomes) == 5
    assert outcomes["accepted"] >= 100 and outcomes["splits"] >= 50


def test_empty_collection_is_refused_by_every_family():
    families = [
        BoxFamily(1, {"a": make_box([(0, 1)])}),
        UnionFamily(1, {"a": (make_box([(0, 1)]),)}),
        make_fr_family(BoxFamily(1, {"Fa": make_box([(0, 1)])}),
                       [("G", ("Fa",))], 1),
    ]
    for fam in families:
        with pytest.raises(FamilyError,
                           match="intersection of an empty collection"):
            fam.is_empty_intersection([])
        with pytest.raises(FamilyError, match="unknown member 'zz'"):
            fam.is_empty_intersection(["zz"])


def test_all_empty_family_has_a_witness():
    fam = UnionFamily(1, {"a": []})
    assert minimal_empty_subfamilies(fam) == [("a",)]
    rep = helly_number(fam)
    assert rep.witness == ("a",) and rep.helly_number == 1
    fam = UnionFamily(1, {"a": [], "b": [make_box([(0, 1)])]})
    assert minimal_empty_subfamilies(fam) == [("a",)]
    with pytest.raises(FamilyError):
        minimal_empty_subfamilies(fam, cap=1)


def _count_calls(monkeypatch, module, name, calls):
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_check_amenta_builds_each_complex_once(monkeypatch):
    calls = {"_closed_facets": 0}
    _count_calls(monkeypatch, helly_mod, "leray_by_links", calls)
    # every library module that binds _closed_facets
    for module in (core, multiproj):
        _count_calls(monkeypatch, module, "_closed_facets", calls)
    fr = random_fr_family(1, 4, 2, 3)
    rep = check_amenta(fr)
    assert rep["projection"]["image_matches_nerve"]
    # two builds: the nerve of the groups, kept on the family for the Helly
    # number and the image check, and X.  Both take the facet lists the walk
    # recorded, so no _closed_facets pass is made.  The image is the nerve,
    # so only the nerve and X need a Leray scan
    assert calls == {"_closed_facets": 0, "leray_by_links": 2}
    calls.clear()
    assert helly_number(fr).helly_number == rep["helly"]
    assert calls == {"leray_by_links": 1}
    assert nerve(fr) is nerve(fr)


def test_union_family_checks_dimension():
    planar = {"a": [make_box([(0, 1), (0, 1)])],
              "b": [make_box([(0, 1), (5, 6)])]}
    # disjoint on axis 1, which a 1-dimensional family would not look at
    with pytest.raises(FamilyError, match="member 'a' has wrong dimension"):
        UnionFamily(1, planar)
    assert UnionFamily(2, planar).is_empty_intersection(["a", "b"])
    with pytest.raises(FamilyError, match="member 'b' has wrong dimension"):
        UnionFamily(2, {"a": planar["a"], "b": [make_box([(0, 1)])]})


# -- the walk's nerve and minimal empty subfamilies against references ----


def _assert_matches_references(fam, is_empty):
    """Nerve facets, minimal empty subfamilies (order included) and the
    Helly witness of ``fam`` equal those built from ``is_empty`` alone."""
    names = fam.names
    ref = nerve_by_oracle(names, is_empty)
    nv = nerve(fam)
    assert (nv.vertex_count, nv.facets) == (ref.vertex_count, ref.facets)
    minimal = minimal_empty_by_scan(names, ref)
    assert minimal_empty_subfamilies(fam) == minimal
    assert minimal_empty_by_slicing(fam) == minimal
    witness = max(minimal, key=len) if minimal else ()
    assert helly_number(fam).witness == witness
    return minimal


@pytest.mark.parametrize("d", (1, 2, 3))
def test_fr_nerve_and_minimal_empty_match_references(d):
    for seed in range(6):
        fr = random_fr_family(d, 5, 2, seed + 10 * d)
        _assert_matches_references(
            fr, lambda sub: not choice_boxes_by_product(fr, sub))


@pytest.mark.parametrize("seed", range(12))
def test_box_and_union_nerve_and_minimal_empty_match_references(seed):
    for family, members in _box_and_union_draw(seed)[1]:
        _assert_matches_references(
            family, lambda sub: _empty_by_product(members, sub))


def _atom_draw(seed):
    """4-7 members over 6 atoms; member m0 is empty for seeds divisible by
    3, and any member may come out empty."""
    rng = CounterRng(seed + 900)
    n = 4 + rng.randint(4)
    members = {"m%d" % i: {a for a in range(6) if rng.uniform() < 0.55}
               for i in range(n)}
    if seed % 3 == 0:
        members["m0"] = set()
    return atom_family(members)


def test_atom_families_match_set_oracle():
    with_empty = several = 0
    for seed in range(20):
        fam = _atom_draw(seed)
        names = fam.names
        for size in range(1, len(names) + 1):
            for sub in combinations(names, size):
                assert fam.is_empty_intersection(sub) == \
                    atom_empty_by_sets(fam, sub)
        minimal = _assert_matches_references(
            fam, lambda sub: atom_empty_by_sets(fam, sub))
        with_empty += not all(fam.members.values())
        several += len(minimal) >= 3
    # the draws exercise empty members and several minimal empty sets
    assert with_empty >= 7 and several >= 10


def test_all_empty_families_match_references():
    unions = [UnionFamily(1, {"a": []}),
              UnionFamily(2, {"a": [], "b": [], "c": []})]
    for fam in unions:
        minimal = _assert_matches_references(
            fam, lambda sub: _empty_by_product(fam.members, sub))
        assert minimal == [(name,) for name in fam.names]
    fam = atom_family({"a": set(), "b": set()})
    minimal = _assert_matches_references(
        fam, lambda sub: atom_empty_by_sets(fam, sub))
    assert minimal == [("a",), ("b",)]


# -- the pieces complex, its simplex list and fiber bound against references


def _empty_by_prefix(boxes):
    """Emptiness of a name list by box_meet, for ``nerve_by_oracle``, which
    asks about every list after its prefix: the prefix's meet, kept, met
    with the last box."""
    meets = {}

    def is_empty(names):
        names = tuple(names)
        if len(names) == 1:
            meets[names] = boxes[names[0]]
        elif meets[names[:-1]] is None:
            meets[names] = None
        else:
            meets[names] = box_meet([meets[names[:-1]], boxes[names[-1]]])
        return meets[names] is None
    return is_empty


def _assert_pieces_complex_matches_references(fr):
    """X of ``pieces_projection`` is the nerve of the pieces by box_meet
    alone; its stored simplex list and the report's fiber bound and witness
    are those of a fresh copy of X."""
    px, rep = pieces_projection(fr)
    X = px.complex
    pieces = [p for _, ps in fr.groups for p in ps]
    ref = nerve_by_oracle(pieces, _empty_by_prefix(fr.base.members))
    assert (X.vertex_count, X.facets, X.labels) == \
        (ref.vertex_count, ref.facets, ref.labels)
    fresh = SimplicialComplex(X.vertex_count, X.facets)
    assert X.all_simplices(include_empty=True) == \
        all_simplices_by_one_set(fresh)
    assert (rep["fiber_bound"], rep["fiber_witness"]) == \
        fiber_bound(make_partitioned(fresh, px.parts))
    assert rep["image_matches_nerve"] and project(px) == nerve(fr)


@pytest.mark.parametrize("d", (1, 2, 3))
def test_pieces_complex_matches_references(d):
    # 4-6 groups, r = 1..3
    for seed in range(12):
        _assert_pieces_complex_matches_references(random_fr_family(
            d, 4 + seed % 3, 1 + seed // 3 % 3, seed + 100 * d))


def _bench_families(monkeypatch):
    """The grouped families of the helly-amenta benchmark's default seed,
    built as the benchmark builds them, with the number of walks made by
    building and checking them."""
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads
    wl = workloads.HellyAmenta()
    texts = wl.generate(0)
    calls = {}
    _count_calls(monkeypatch, helly_mod, "_meet_walk", calls)
    _count_calls(monkeypatch, multiproj, "_section_table", calls)
    return [wl.run(text).keep["fr"] for text in texts], calls


def test_bench_pieces_complexes_match_references(monkeypatch):
    families, _ = _bench_families(monkeypatch)
    assert len(families) == 35
    for fr in families:
        _assert_pieces_complex_matches_references(fr)


def test_minimal_empty_matches_slicing_oracle(monkeypatch):
    # the benchmark's families, and small ones at the edges: a member with
    # no boxes (its singleton is a non-face), a void nerve, one member
    families, _ = _bench_families(monkeypatch)
    one = make_box([(0, 1)])
    edges = [
        (UnionFamily(1, {"a": [one], "b": [], "c": [make_box([(1, 2)])]}),
         [("b",)]),
        (UnionFamily(2, {"a": [], "b": []}), [("a",), ("b",)]),
        (BoxFamily(1, {"a": one}), []),
        (UnionFamily(1, {"a": []}), [("a",)]),
        (interval_family([("a", 0, 1), ("b", 2, 3), ("c", 1, 2)]),
         [("a", "b")]),
    ]
    for fam in families:
        assert minimal_empty_subfamilies(fam) == minimal_empty_by_slicing(fam)
    for fam, minimal in edges:
        assert minimal_empty_subfamilies(fam) == minimal
        assert minimal_empty_by_slicing(fam) == minimal
    # some minimal non-face has size >= 3, so the codimension-1 AND runs
    # over two or more faces
    assert max(len(c) for fam in families
               for c in minimal_empty_subfamilies(fam)) >= 3


def test_helly_amenta_walks_once_per_family(monkeypatch):
    # the validation walk's table gives the nerve, the pieces complex X,
    # its simplex list and its section table: no second walk, and no
    # section table built from X
    families, calls = _bench_families(monkeypatch)
    assert len(families) == 35
    assert calls == {"_meet_walk": 35}
