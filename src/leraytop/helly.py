"""Finite set families with exact intersection oracles, nerves, Helly
numbers, grouped (union-of-pieces) families, and the verification harness
for the r(d+1) Helly bound.

Geometry is restricted to axis-parallel boxes with rational corners:
intersections are computed exactly and every nonempty intersection is again
a box (convex), so box families are automatically good covers.  Atom
families are a combinatorial stand-in when only the intersection pattern
matters.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .core import ComplexError, SimplicialComplex, _closed_facets
from .leray import leray_by_links
from .multiproj import fiber_bound, make_partitioned
from .rng import CounterRng


class FamilyError(ValueError):
    """Invalid set-family input."""


_EMPTY_COLLECTION = "intersection of an empty collection is undefined"


@dataclass(frozen=True)
class Box:
    """Product of closed rational intervals [lo, hi] per axis (nonempty)."""
    intervals: tuple

    def __post_init__(self):
        for lo, hi in self.intervals:
            if lo > hi:
                raise FamilyError("interval with lo > hi: [%s, %s]" % (lo, hi))

    @property
    def dimension(self):
        return len(self.intervals)


def make_box(intervals) -> Box:
    return Box(tuple((Fraction(lo), Fraction(hi)) for lo, hi in intervals))


def box_meet(boxes):
    """Intersection of boxes; None if empty."""
    boxes = list(boxes)
    if not boxes:
        raise FamilyError(_EMPTY_COLLECTION)
    d = boxes[0].dimension
    out = []
    for axis in range(d):
        lo = max(b.intervals[axis][0] for b in boxes)
        hi = min(b.intervals[axis][1] for b in boxes)
        if lo > hi:
            return None
        out.append((lo, hi))
    return Box(tuple(out))


def boxes_disjoint(a: Box, b: Box) -> bool:
    return box_meet([a, b]) is None


# -- the subfamily walk --------------------------------------------------


def _ranked(dimension, groups):
    """``groups`` (lists of boxes) with each box as a flat tuple
    (lo_0, hi_0, lo_1, hi_1, ...) of endpoint ranks: an endpoint becomes its
    rank among the distinct endpoints on its axis.

    Closed intervals meet iff max lo <= min hi, and ranking keeps the order
    and the equalities of the endpoints on an axis, so every meet is empty
    on ranks exactly when it is empty on the rational endpoints.
    """
    rank = []
    for axis in range(dimension):
        ends = sorted({x for boxes in groups for b in boxes
                       for x in b.intervals[axis]})
        rank.append({x: i for i, x in enumerate(ends)})
    return [[tuple(rank[axis][x] for axis in range(dimension)
                   for x in b.intervals[axis]) for b in boxes]
            for boxes in groups]


def _meet_ranked(a, b):
    """Meet of two ranked boxes; None if empty."""
    out = []
    for i in range(0, len(a), 2):
        lo = a[i] if a[i] > b[i] else b[i]
        hi = a[i + 1] if a[i + 1] < b[i + 1] else b[i + 1]
        if lo > hi:
            return None
        out.append(lo)
        out.append(hi)
    return tuple(out)


def _meet_sets(a, b):
    """Meet of two atom sets; None if empty."""
    return a & b or None


def _meet_walk(parts, meet):
    """Yield ``(sub, meets)`` for every subfamily with nonempty
    intersection, by size and then in lexicographic order of the index
    tuple ``sub``.  ``parts`` holds one list of parts per member (the member
    is their union) and ``meet(a, b)`` is the intersection of two parts, or
    None if it is empty; ``meets`` are the nonempty meets of one part per
    member of ``sub``.

    An entry is its prefix ``sub[:-1]``'s meets met with each part of its
    last member, and a subfamily with an empty prefix is empty, so it is
    never visited.  Only the current and the next size are held.
    """
    n = len(parts)
    level = [((i,), p) for i, p in enumerate(parts) if p]
    while level:
        nxt = []
        for sub, acc in level:
            yield sub, acc
            for j in range(sub[-1] + 1, n):
                meets = []
                for a in acc:
                    for b in parts[j]:
                        m = meet(a, b)
                        if m is not None:
                            meets.append(m)
                if meets:
                    nxt.append((sub + (j,), meets))
        level = nxt


class _WalkFamily:
    """A family that keeps one thing: its nonempty subfamilies as sorted
    index tuples over ``names``, which are the simplices of its nerve.  They
    come from one ``_meet_walk`` over ``_parts()`` on first use, unless
    ``make_fr_family`` stored them while validating.  Box families rank
    ``_member_boxes()`` (one list of boxes per member, in ``names`` order).
    """
    _faces = None

    def _parts(self):
        return _ranked(self.dimension, self._member_boxes()), _meet_ranked

    def _nonempty(self):
        if self._faces is None:
            object.__setattr__(self, "_faces", frozenset(
                sub for sub, _ in _meet_walk(*self._parts())))
        return self._faces

    def is_empty_intersection(self, names):
        members = self.names
        sub = set()
        for name in names:
            if name not in members:
                raise FamilyError("unknown member %r" % (name,))
            sub.add(members.index(name))
        if not sub:
            raise FamilyError(_EMPTY_COLLECTION)
        return tuple(sorted(sub)) not in self._nonempty()


def _check_dimension(family):
    for name, boxes in zip(family.names, family._member_boxes()):
        if any(box.dimension != family.dimension for box in boxes):
            raise FamilyError("member %r has wrong dimension" % (name,))


class BoxFamily(_WalkFamily):
    """Named nonempty boxes in R^d with an exact intersection oracle."""

    def __init__(self, dimension, members):
        self.dimension = int(dimension)
        self.members = dict(members)
        self.names = tuple(self.members)
        _check_dimension(self)

    def _member_boxes(self):
        return [(box,) for box in self.members.values()]


class AtomFamily(_WalkFamily):
    """Named finite subsets of a ground set of atoms; intersection pattern
    only, no good-cover claim."""

    def __init__(self, members):
        self.members = {name: frozenset(v) for name, v in members.items()}
        self.names = tuple(self.members)

    def _parts(self):
        # an empty member has no parts, like a union of no boxes
        return [[m] if m else [] for m in self.members.values()], _meet_sets


def nerve(family) -> SimplicialComplex:
    """The nerve: one vertex per member, a simplex per subfamily with
    nonempty intersection.  Vertex labels carry the member names."""
    faces = family._nonempty()
    if not faces:
        return SimplicialComplex(0, ())
    # every face of an intersecting subfamily intersects, so the set is
    # closed under nonempty faces
    return SimplicialComplex(len(family.names), _closed_facets(faces),
                             labels=family.names)


@dataclass(frozen=True)
class HellyReport:
    helly_number: int
    witness: tuple            # maximal minimal-empty subfamily, or ()
    nerve_leray: int
    bound: int                # 1 + nerve_leray

    @property
    def holds(self):
        return self.helly_number <= self.bound


def _check_cap(names, cap):
    if len(names) > cap:
        raise FamilyError("family size %d exceeds cap %d" % (len(names), cap))


def minimal_empty_subfamilies(family, cap=20):
    """Inclusion-minimal subfamilies with empty intersection (the minimal
    non-faces of the nerve), as name tuples by size and then
    lexicographically.  Each is a face (the empty one included) extended by
    one larger index, whose other codimension-1 faces are faces too."""
    _check_cap(family.names, cap)
    # the empty subfamily counts as intersecting even when the nerve is void
    faces = family._nonempty() | {()}
    out = []
    for s in faces:
        for j in range(s[-1] + 1 if s else 0, len(family.names)):
            cand = s + (j,)
            if cand not in faces and all(cand[:i] + cand[i + 1:] in faces
                                         for i in range(len(s))):
                out.append(cand)
    out.sort(key=lambda c: (len(c), c))
    return [tuple(family.names[i] for i in c) for c in out]


def helly_number(family, cap=20) -> HellyReport:
    """The Helly number: the largest minimal empty-intersection subfamily
    (or 1 if all intersections are nonempty), plus the nerve-Leray bound."""
    minimal = minimal_empty_subfamilies(family, cap)
    if minimal:
        witness = max(minimal, key=len)
        h = max(1, len(witness))
    else:
        witness = ()
        h = 1
    nl = leray_by_links(nerve(family)).value
    return HellyReport(h, witness, nl, 1 + nl)


def helly_number_direct(family, cap=12) -> int:
    """Independent oracle: smallest h such that every subfamily all of whose
    subsets of size <= h intersect has nonempty total intersection."""
    names = family.names
    n = len(names)
    _check_cap(names, cap)
    empty = {}
    for size in range(1, n + 1):
        for K in combinations(range(n), size):
            empty[K] = family.is_empty_intersection([names[i] for i in K])
    for h in range(1, n + 1):
        ok = True
        for size in range(1, n + 1):
            for K in combinations(range(n), size):
                if not empty[K]:
                    continue
                if all(not empty[Kp] for t in range(1, min(h, size) + 1)
                       for Kp in combinations(K, t)):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return h
    return n


def check_hl(family, cap=20):
    """Verify the nerve-Leray bound on the Helly number."""
    report = helly_number(family, cap=cap)
    return {
        "claim": "helly_leray_bound",
        "helly": report.helly_number,
        "nerve_leray": report.nerve_leray,
        "bound": report.bound,
        "holds": report.holds,
    }


class UnionFamily(_WalkFamily):
    """Members that are finite unions of boxes, with the exact emptiness
    oracle (no disjointness or piece-count validation)."""

    def __init__(self, dimension, members):
        self.dimension = int(dimension)
        self.members = {name: tuple(boxes) for name, boxes in members.items()}
        self.names = tuple(self.members)
        _check_dimension(self)

    def _member_boxes(self):
        return list(self.members.values())


# -- grouped families ---------------------------------------------------


class FrValidationError(FamilyError):
    """The grouped family violates the at-most-r disjoint-pieces property;
    carries the violating group subfamily."""

    def __init__(self, message, subfamily):
        super().__init__(message)
        self.subfamily = subfamily


@dataclass(frozen=True)
class FrFamily(_WalkFamily):
    """Members G_i, each a disjoint union of at most r base boxes (pieces);
    every subfamily intersection decomposes into at most r disjoint boxes."""
    dimension: int
    base: object                 # BoxFamily of all pieces
    groups: tuple                # ((group name, (piece names...)), ...)
    r: int
    # The nonempty subfamilies of groups, filled by make_fr_family or on
    # first use; like PartitionedComplex._e1_page it is not part of the value.
    _faces: object = field(default=None, init=False, compare=False,
                           repr=False)

    @property
    def names(self):
        return tuple(g for g, _ in self.groups)

    def _member_boxes(self):
        return [[self.base.members[p] for p in pieces]
                for _, pieces in self.groups]


def make_fr_family(base: BoxFamily, grouping, r) -> FrFamily:
    """Validate and build a grouped family.

    Within each group the pieces must be pairwise disjoint; for every
    subfamily of groups the nonempty piece-choice boxes must be pairwise
    disjoint and number at most r.
    """
    groups = tuple((g, tuple(pieces)) for g, pieces in grouping)
    all_pieces = [p for _, pieces in groups for p in pieces]
    if len(set(all_pieces)) != len(all_pieces):
        raise FamilyError("a piece occurs in two groups")
    for g, pieces in groups:
        if not pieces:
            raise FamilyError("group %r has no pieces" % (g,))
        if len(pieces) > r:
            raise FrValidationError(
                "group %r has more than r=%d pieces" % (g, r), (g,))
        for a, b in combinations(pieces, 2):
            if not boxes_disjoint(base.members[a], base.members[b]):
                raise FrValidationError(
                    "pieces %r and %r of group %r overlap" % (a, b, g), (g,))
    fam = FrFamily(base.dimension, base, groups, int(r))
    names = fam.names
    # The walk visits subfamilies by size, then lexicographically, so the
    # first violator is the first in that order.  Only the count needs
    # checking: two different piece choices differ in some group, whose
    # pieces are disjoint, so the choice boxes never overlap.
    faces = []
    for sub, boxes in _meet_walk(*fam._parts()):
        if len(boxes) > r:
            sub = tuple(names[i] for i in sub)
            raise FrValidationError(
                "intersection over %r splits into %d > r pieces"
                % (sub, len(boxes)), sub)
        faces.append(sub)
    object.__setattr__(fam, "_faces", frozenset(faces))
    return fam


def pieces_projection(fr: FrFamily):
    """The nerve of all pieces, partitioned by group, with its projection
    report: the image must equal the nerve of the grouped family and the
    fiber bound must be at most r."""
    piece_order = [p for _, pieces in fr.groups for p in pieces]
    piece_family = BoxFamily(fr.dimension,
                             {p: fr.base.members[p] for p in piece_order})
    X = nerve(piece_family)
    parts = []
    pos = {p: i for i, p in enumerate(piece_order)}
    for _, pieces in fr.groups:
        parts.append(tuple(pos[p] for p in pieces))
    px = make_partitioned(X, parts)
    # part i is group i, so both complexes are on the group indices: the
    # image is the nerve when the part sets of the simplices of X are the
    # nonempty subfamilies of groups.  That always holds (a simplex of X
    # holds at most one piece per group, since a group's pieces are
    # disjoint, and groups meet iff some choice of one piece each does),
    # so the comparison re-checks an identity.
    owner = px.part_of()
    matches = fr._nonempty() == {tuple(sorted(owner[v] for v in s))
                                 for s in piece_family._nonempty()}
    r_val, witness = fiber_bound(px)
    return px, {
        "claim": "pieces_projection",
        "image_matches_nerve": matches,
        "fiber_bound": r_val,
        "fiber_witness": witness,
        "r": fr.r,
        "holds": matches and r_val <= fr.r,
    }


def check_amenta(fr: FrFamily, cap=20):
    """Verify h(G) <= r(d+1) and the full chain of inequalities
    h(G) <= 1 + L(image) <= 1 + r L(X) + r - 1 <= r(d+1)."""
    report = helly_number(fr, cap)
    px, proj_report = pieces_projection(fr)
    lx = leray_by_links(px.complex).value
    # the image is the nerve (see pieces_projection), so it has the nerve's
    # Leray number
    l_image = report.nerve_leray
    r, d = fr.r, fr.dimension
    h = report.helly_number
    chain = (
        h <= 1 + l_image,
        1 + l_image <= 1 + r * lx + r - 1,
        1 + r * lx + r - 1 <= r * (d + 1),
    )
    return {
        "claim": "amenta_bound",
        "helly": h,
        "r": r,
        "d": d,
        "bound": r * (d + 1),
        "leray_x": lx,
        "leray_image": l_image,
        "projection": proj_report,
        "chain_holds": all(chain),
        "holds": h <= r * (d + 1) and all(chain) and proj_report["holds"],
    }


# -- generators ----------------------------------------------------------


def _random_box(rng: CounterRng, d, span=12, max_len=5):
    out = []
    for _ in range(d):
        lo = Fraction(rng.randint(2 * span), 2)
        length = Fraction(1 + rng.randint(2 * max_len), 2)
        out.append((lo, lo + length))
    return Box(tuple(out))


def random_fr_family(d, n_groups, r, seed, max_attempts=200) -> FrFamily:
    """Deterministic valid grouped family: resamples (seeded) until the
    at-most-r disjoint-pieces property validates."""
    for attempt in range(max_attempts):
        rng = CounterRng((seed << 16) + attempt)
        base_members = {}
        grouping = []
        ok = True
        for gi in range(n_groups):
            count = 1 + rng.randint(r)
            pieces = []
            for pi in range(count):
                name = "F%d_%d" % (gi, pi)
                for _ in range(20):
                    box = _random_box(rng, d)
                    if all(boxes_disjoint(box, base_members[p])
                           for p in pieces):
                        base_members[name] = box
                        pieces.append(name)
                        break
                else:
                    ok = False
                if not ok:
                    break
            if not ok:
                break
            grouping.append(("G%d" % gi, tuple(pieces)))
        if not ok:
            continue
        base = BoxFamily(d, base_members)
        try:
            return make_fr_family(base, grouping, r)
        except FrValidationError:
            continue
    raise FamilyError("no valid grouped family found for seed %d" % seed)


def interval_family(intervals) -> BoxFamily:
    """Convenience: a 1-dimensional box family from (name, lo, hi) triples."""
    return BoxFamily(1, {name: make_box([(lo, hi)])
                         for name, lo, hi in intervals})
