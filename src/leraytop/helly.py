"""Finite set families with exact intersection oracles, nerves, Helly
numbers, grouped (union-of-pieces) families, and the verification harness
for the r(d+1) Helly bound.

Geometry is restricted to axis-parallel boxes with rational corners:
intersections are computed exactly and every nonempty intersection is again
a box (convex), so box families are automatically good covers.  Each member
of a family is a union of boxes, and one clique walk (``_meet_walk``) finds
the subfamilies that meet.  Closed boxes have Helly number 2: on each axis,
closed intervals that meet pairwise have a common point.  So a subfamily
meets exactly when some choice of one box per member meets pairwise, and
each pairwise test compares integers (the endpoints scaled per axis by the
lcm of their denominators), which keeps it exact.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm

from .core import (SimplicialComplex, _bits, _minimal_non_faces,
                   _vertices)
from .leray import leray_by_links
from .multiproj import fiber_bound, make_partitioned, project
from .rng import CounterRng


class FamilyError(ValueError):
    """Invalid set-family input."""


MEMBER_CAP = 20         # default cap on the members of a walked family


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


def boxes_disjoint(a: Box, b: Box) -> bool:
    """True if the closed boxes miss each other: on some axis one ends
    before the other starts."""
    return any(hi < lo2 or hi2 < lo for (lo, hi), (lo2, hi2)
               in zip(a.intervals, b.intervals))


# -- the subfamily walk --------------------------------------------------


def _scaled(dimension, boxes):
    """``boxes`` as flat tuples (lo_0, hi_0, lo_1, hi_1, ...) of integers,
    each axis multiplied by the lcm of its endpoints' denominators.  A
    positive scaling keeps the order of the endpoints on an axis, so two
    boxes meet on the integers exactly when they meet on the rationals."""
    scale = [lcm(*{x.denominator for b in boxes for x in b.intervals[axis]})
             for axis in range(dimension)]
    return [tuple(x.numerator * (scale[axis] // x.denominator)
                  for axis in range(dimension) for x in b.intervals[axis])
            for b in boxes]


def _meet_walk(boxes, owner):
    """Yield, size by size, every set of scaled boxes (``_scaled``) of
    distinct owners with a common point, each as a pair (index tuple,
    bitmask of the boxes that meet all of the set), the tuples in
    lexicographic order.  ``owner[i]`` is the member that box ``i``
    belongs to, and the boxes are grouped by owner.

    By Helly number 2 the sets are the cliques of the meet graph.  One pass
    over the pairs gives box ``i`` the bitmask ``nb[i]`` of the boxes of
    another owner that meet it, earlier and later.  A clique carries the
    AND of its members' masks: its later bits are the boxes that extend it
    in lexicographic order, and the clique is maximal exactly when the AND
    is 0.  Only the current and the next size are held, and the next is
    built only when the caller asks for it.
    """
    nb = [0] * len(boxes)
    for i, j in combinations(range(len(boxes)), 2):
        a, b = boxes[i], boxes[j]
        # closed intervals meet iff each starts before the other ends
        if owner[i] != owner[j] and all(a[k] <= b[k + 1] and b[k] <= a[k + 1]
                                        for k in range(0, len(a), 2)):
            nb[i] |= 1 << j
            nb[j] |= 1 << i
    level = [((i,), mask) for i, mask in enumerate(nb)]
    while level:
        yield level
        nxt = []
        for sub, common in level:
            top = sub[-1] + 1
            later = common >> top << top
            while later:
                j = (later & -later).bit_length() - 1
                nxt.append((sub + (j,), common & nb[j]))
                later &= later - 1
        level = nxt


class _WalkFamily:
    """A family whose members are unions of boxes, ``_member_boxes()``
    giving one list per member in ``names`` order.  On first use one
    ``_meet_walk`` over all the boxes, each owned by its member, fills the
    family's table (``_walk``):

    * ``_faces`` maps each nonempty subfamily, a sorted index tuple over
      ``names``, to the box sets over it; the boxes are grouped by owner,
      so its keys are the simplices of the nerve in ``all_simplices``
      order.  ``_piece_faces`` lists the box sets by size and then
      lexicographically.
    * ``_piece_facets`` are the maximal box sets (their AND is 0), the
      facets of the pieces nerve when the boxes of a member are disjoint,
      and ``_nerve_facets`` the keys over which every box set is maximal,
      the facets of the nerve: K + j is a face exactly when some box set
      over K extends by a box of j.

    ``_nerve`` keeps the nerve once ``nerve`` has built it.
    """
    _faces = _piece_faces = _piece_facets = _nerve_facets = None
    _nerve = None

    def _walk(self):
        members = self._member_boxes()
        owner = [m for m, boxes in enumerate(members) for _ in boxes]
        boxes = _scaled(self.dimension, [b for bs in members for b in bs])
        table, subs, facets, extends = {}, [], [], set()
        for level in _meet_walk(boxes, owner):
            keys = {}
            for sub, common in level:
                key = tuple(map(owner.__getitem__, sub))
                keys.setdefault(key, []).append(sub)
                subs.append(sub)
                if common:
                    extends.add(key)
                else:
                    facets.append(sub)
            self._check_size(keys)
            table.update(keys)
        found = dict(_faces=table, _piece_faces=subs, _piece_facets=facets,
                     _nerve_facets=[key for key in table
                                    if key not in extends])
        for name, value in found.items():
            object.__setattr__(self, name, value)

    def _check_size(self, keys):
        """Raise if one size of the walk breaks the family's rules; a box
        or union family has none."""

    def _nonempty(self):
        if self._faces is None:
            self._walk()
        return self._faces

    def is_empty_intersection(self, names):
        members = self.names
        sub = set()
        for name in names:
            if name not in members:
                raise FamilyError("unknown member %r" % (name,))
            sub.add(members.index(name))
        if not sub:
            raise FamilyError(
                "intersection of an empty collection is undefined")
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


def nerve(family) -> SimplicialComplex:
    """The nerve: one vertex per member, a simplex per subfamily with
    nonempty intersection.  Vertex labels carry the member names.  It is
    built on first use, from the facets the walk found, and kept on the
    family."""
    if family._nerve is None:
        object.__setattr__(family, "_nerve", SimplicialComplex(
            len(family.names), family._nerve_facets, labels=family.names)
            if family._nonempty() else SimplicialComplex(0, ()))
    return family._nerve


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


def minimal_empty_subfamilies(family, cap=MEMBER_CAP):
    """Inclusion-minimal subfamilies with empty intersection (the minimal
    non-faces of the nerve), as name tuples by size and then
    lexicographically: ``_minimal_non_faces`` on the bitmasks of the
    walk's faces (``_WalkFamily``) and of the empty subfamily."""
    names = family.names
    _check_cap(names, cap)
    faces = [0] + [_bits(K) for K in family._nonempty()]
    out = sorted(map(_vertices,
                     _minimal_non_faces(faces, (1 << len(names)) - 1)),
                 key=lambda c: (len(c), c))
    return [tuple(names[i] for i in c) for c in out]


def helly_number(family, cap=MEMBER_CAP) -> HellyReport:
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


def check_hl(family):
    """Verify the nerve-Leray bound on the Helly number."""
    report = helly_number(family)
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
    every subfamily intersection decomposes into at most r disjoint boxes.
    The walk that fills the table on first use validates the family: the
    groups before it (``_member_boxes``), the counts after each size
    (``_check_size``)."""
    dimension: int
    base: object                 # BoxFamily of all pieces
    groups: tuple                # ((group name, (piece names...)), ...)
    r: int

    @property
    def names(self):
        return tuple(g for g, _ in self.groups)

    def _member_boxes(self):
        """The pieces, group by group, after checking the groups: at least
        one group, no piece in two groups, and 1 to r pairwise disjoint
        pieces in each."""
        if not self.groups:
            raise FamilyError("a grouped family needs at least one group")
        all_pieces = [p for _, pieces in self.groups for p in pieces]
        if len(set(all_pieces)) != len(all_pieces):
            raise FamilyError("a piece occurs in two groups")
        for g, pieces in self.groups:
            if not pieces:
                raise FamilyError("group %r has no pieces" % (g,))
            if len(pieces) > self.r:
                raise FrValidationError(
                    "group %r has more than r=%d pieces" % (g, self.r), (g,))
            for a, b in combinations(pieces, 2):
                if not boxes_disjoint(self.base.members[a],
                                      self.base.members[b]):
                    raise FrValidationError(
                        "pieces %r and %r of group %r overlap" % (a, b, g),
                        (g,))
        return [[self.base.members[p] for p in pieces]
                for _, pieces in self.groups]

    def _check_size(self, keys):
        """Raise for the first subfamily of groups over which more than r
        pieces meet.  Two different piece choices differ in some group,
        whose pieces are disjoint, so the choice boxes never overlap: only
        the count can fail."""
        for key, over in keys.items():
            if len(over) > self.r:
                key = tuple(self.names[g] for g in key)
                raise FrValidationError(
                    "intersection over %r splits into %d > r pieces"
                    % (key, len(over)), key)


def make_fr_family(base: BoxFamily, grouping, r) -> FrFamily:
    """Build a grouped family and validate it now, by the walk that fills
    its table: the groups first, then the count over every subfamily of
    groups (see ``FrFamily``).  A directly built family raises the same
    errors, in the same order, on first use."""
    fam = FrFamily(base.dimension, base,
                   tuple((g, tuple(pieces)) for g, pieces in grouping), int(r))
    fam._walk()
    return fam


def pieces_projection(fr: FrFamily):
    """The nerve X of all pieces, partitioned by group, with its projection
    report: the image must equal the nerve of the grouped family, and the
    fiber bound must be at most r.  X, its simplex list and its sections
    (part i is group i) are the family's table."""
    sections = fr._nonempty()
    names, parts = [], []
    for _, pieces in fr.groups:
        parts.append(range(len(names), len(names) + len(pieces)))
        names += pieces
    X = SimplicialComplex(len(names), fr._piece_facets, labels=names)
    px = make_partitioned(X, parts)
    X._simplex_cache = [()] + fr._piece_faces
    object.__setattr__(px, "_sections", sections)
    # the image is always the nerve (see the README's Helly layer), so this
    # re-checks an identity
    matches = project(px) == nerve(fr)
    r_val, witness = fiber_bound(px)
    return px, {
        "claim": "pieces_projection",
        "image_matches_nerve": matches,
        "fiber_bound": r_val,
        "fiber_witness": witness,
        "r": fr.r,
        "holds": matches and r_val <= fr.r,
    }


def check_amenta(fr: FrFamily):
    """Verify h(G) <= r(d+1) and the full chain of inequalities
    h(G) <= 1 + L(image) <= 1 + r L(X) + r - 1 <= r(d+1)."""
    report = helly_number(fr)
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


def _random_box(rng: CounterRng, d):
    """Half-integer corners: each axis starts below 12, is 1/2 to 5 long."""
    out = []
    for _ in range(d):
        lo = Fraction(rng.randint(24), 2)
        length = Fraction(1 + rng.randint(10), 2)
        out.append((lo, lo + length))
    return Box(tuple(out))


def random_fr_family(d, n_groups, r, seed) -> FrFamily:
    """Deterministic valid grouped family: resamples (seeded), up to 200
    times, until the at-most-r disjoint-pieces property validates."""
    for attempt in range(200):
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
    raise FamilyError(
        "no valid grouped family with r=%d, d=%d and %d groups in 200 draws "
        "for seed %d" % (r, d, n_groups, seed))
