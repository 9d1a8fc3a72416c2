"""Partitioned complexes, the projection onto a simplex, fiber bounds,
multiple-point complexes, inequality checkers and instance generators.

A partitioned complex carries a vertex partition V = V_1 u ... u V_m whose
induced subcomplexes are all 0-dimensional; the projection sends every
vertex of V_i to vertex i of the (m-1)-simplex.  The multiple-point complex
of factors X_1,...,X_k (all on the same parts) has vertices (i, (v_1..v_k))
with v_r in V_i, and a simplex over a part set I whenever each coordinate-r
projection is a simplex of X_r.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from math import prod

from .core import (DEFAULT_SIMPLEX_GUARD, ComplexError, GuardExceeded,
                   SimplicialComplex, _closed_facets, _maximal, intersection,
                   make_complex)
from .homology import reduced_betti
from .leray import leray_by_links
from .rng import CounterRng

DEFAULT_MPC_VERTEX_GUARD = 20_000
DEFAULT_MPC_SIMPLEX_GUARD = 200_000


@dataclass(frozen=True)
class PartitionedComplex:
    """A complex together with a partition into 0-dimensionally induced
    parts."""
    complex: SimplicialComplex
    parts: tuple
    # The section table once _sections has built it, and the E1 page once
    # icss.e1_page has computed it.  Like SimplicialComplex._simplex_cache
    # they are not part of the value; callers never change them.
    _sections: object = field(default=None, init=False, compare=False,
                              repr=False)
    _e1_page: object = field(default=None, init=False, compare=False,
                             repr=False)

    @property
    def m(self):
        return len(self.parts)

    def part_of(self):
        out = [None] * self.complex.vertex_count
        for i, part in enumerate(self.parts):
            for v in part:
                out[v] = i
        return out


def make_partitioned(X: SimplicialComplex, parts) -> PartitionedComplex:
    """Validate the partition: disjoint cover of the vertex table, no
    simplex with two vertices in one part, every part nonempty."""
    parts = tuple(tuple(sorted(p)) for p in parts)
    if not parts:
        raise ComplexError("at least one part is required")
    seen = []
    for p in parts:
        if not p:
            raise ComplexError("empty part")
        seen.extend(p)
    if sorted(seen) != list(range(X.vertex_count)):
        raise ComplexError("parts do not partition the vertex table")
    owner = {}
    for i, p in enumerate(parts):
        for v in p:
            owner[v] = i
    for f in X.facets:
        if len(set(map(owner.__getitem__, f))) != len(f):
            raise ComplexError(
                "facet %r meets a part twice; induced part subcomplexes "
                "must be 0-dimensional" % (f,))
    return PartitionedComplex(X, parts)


def project(px: PartitionedComplex) -> SimplicialComplex:
    """The image complex on the part indices 0..m-1."""
    owner = px.part_of()
    if px.complex.is_void():
        return SimplicialComplex(px.m, ())
    facets = {tuple(sorted(owner[v] for v in f)) for f in px.complex.facets}
    return SimplicialComplex(px.m, _maximal(facets))


def _section_table(px: PartitionedComplex,
                   guard=DEFAULT_SIMPLEX_GUARD) -> dict:
    """Each nonempty image simplex mapped to the simplices of X over it, in
    one pass over X's simplices, enumerated under ``guard``.

    Parts are 0-dimensionally induced, so these are the sections over the
    image simplex.  Each is kept as X lists it, in vertex order.  A simplex
    is filed under the bitmask of its parts, the sum of its vertices' part
    bits, and each mask becomes the sorted parts of its first section once.
    Masks and image simplices correspond one to one, so the keys come in
    the order of their first section.
    """
    owner = px.part_of()
    bit = [1 << i for i in owner]
    by_mask = {}
    for s in px.complex.all_simplices(guard=guard):
        by_mask.setdefault(sum(map(bit.__getitem__, s)), []).append(s)
    return {tuple(sorted(map(owner.__getitem__, secs[0]))): secs
            for secs in by_mask.values()}


def _sections(px: PartitionedComplex, guard=DEFAULT_SIMPLEX_GUARD) -> dict:
    """The section table of ``px``, built on first use and kept on it.  X's
    simplices are listed under ``guard`` on every call, so a smaller guard
    still refuses as building the table would."""
    if px._sections is None:
        object.__setattr__(px, "_sections", _section_table(px, guard))
    else:
        px.complex.all_simplices(guard=guard)
    return px._sections


def _mpc_simplex_count(tables) -> int:
    """The number of nonempty simplices of the multiple-point complex of
    factors with these section tables: over each image simplex, the product
    of the factors' section counts."""
    return sum(prod(len(t.get(I, ())) for t in tables) for I in tables[0])


def _check_vertex_bound(parts, k):
    """Refuse a k-fold multiple-point complex whose vertex labels hold more
    than DEFAULT_MPC_VERTEX_GUARD entries, read at call time: M_k has
    sum |part|^k vertices, each labelled by a k-tuple.

    Once k reaches the guard's bit length, a part of two or more vertices
    passes the guard alone, so no power is taken past that exponent and a
    huge k builds no huge integer."""
    guard = DEFAULT_MPC_VERTEX_GUARD
    e = min(k, guard.bit_length())
    if k * sum(len(p) ** e for p in parts) > guard:
        raise GuardExceeded("multiple-point vertex bound exceeds guard %d"
                            % guard)


def _check_simplex_count(count, guard):
    """Refuse a multiple-point complex with too many simplices; a void one
    has nothing to build and passes any guard."""
    if count and count > guard:
        raise GuardExceeded(
            "multiple-point simplex count exceeds guard %d" % guard)


def fiber_bound(px: PartitionedComplex, guard=DEFAULT_SIMPLEX_GUARD):
    """The maximal number of preimage points over a point of the image,
    computed as the maximal number of sections over an image simplex.

    Returns (r, witness) where witness is the first image simplex, in
    (dimension, lex) order, attaining r.  X's simplices are enumerated
    under ``guard``.
    """
    table = _sections(px, guard)
    if not table:
        return 0, None
    r = max(map(len, table.values()))
    witness = min((s for s, secs in table.items() if len(secs) == r),
                  key=lambda t: (len(t), t))
    return r, witness


@dataclass(frozen=True)
class MultiPointComplex:
    """Simplicial model of the k-fold multiple-point set of projections.

    Vertices are labeled (part index, k-tuple of factor vertices); the
    underlying complex keeps those labels.
    """
    complex: SimplicialComplex
    k: int
    parts: tuple
    part_of_vertex: tuple
    tuples: tuple
    equal_factors: bool


def generalized_mpc(pxs,
                    guard=DEFAULT_MPC_SIMPLEX_GUARD) -> MultiPointComplex:
    """The multiple-point complex of factors sharing one part structure.

    ``guard`` bounds each factor's simplex enumeration and the simplex
    count of the result."""
    if not pxs:
        raise ComplexError("at least one factor is required")
    parts = pxs[0].parts
    for px in pxs[1:]:
        if px.parts != parts:
            raise ComplexError("factors have mismatched part structures")
    k = len(pxs)
    _check_vertex_bound(parts, k)
    tables = [_sections(px, guard) for px in pxs]
    _check_simplex_count(_mpc_simplex_count(tables), guard)
    owner = pxs[0].part_of()
    simplices = []
    for I in tables[0]:
        # each section's vertices in the order of the parts of I
        by_part = [[sorted(s, key=owner.__getitem__) for s in t.get(I, ())]
                   for t in tables]
        for combo in product(*by_part):
            simplices.append(tuple((I[j], tuple(sec[j] for sec in combo))
                                   for j in range(len(I))))
    keys = sorted({v for s in simplices for v in s})
    idx = {key: i for i, key in enumerate(keys)}
    # keys sort by part first, so each simplex's indices already ascend; a
    # face of a simplex over I restricts its sections to a face of I, so
    # the set is closed under nonempty faces
    facets = _closed_facets(tuple(idx[v] for v in s) for s in simplices)
    cx = SimplicialComplex(len(keys), facets, labels=keys)
    equal = all(px.complex == pxs[0].complex for px in pxs[1:])
    return MultiPointComplex(
        cx, k, parts,
        tuple(key[0] for key in keys), tuple(key[1] for key in keys), equal)


def multiple_point_complex(px: PartitionedComplex, k,
                           guard=DEFAULT_MPC_SIMPLEX_GUARD):
    """M_k: the k-fold multiple-point complex of a single complex."""
    if k < 1:
        raise ComplexError("k must be at least 1")
    # refuse before the list of k factors is built
    _check_vertex_bound(px.parts, k)
    return generalized_mpc([px] * k, guard=guard)


# -- checkers ------------------------------------------------------------


def _image(px: PartitionedComplex) -> SimplicialComplex:
    """``project(px)`` read off the section table that ``_sections`` has
    stored on ``px``.

    The table's keys are the nonempty simplices of the image, and a face of
    a section is a section over the face, so they are closed under faces:
    their facets are the image's, and with the empty simplex, sorted by
    (dimension, lex), they are its simplex list, stored with it.  There are
    no more of them than X has simplices, so a guard that let X's list
    through lets this one through.  An X with no vertex is its own image.
    """
    keys = list(px._sections)
    if not keys:
        return SimplicialComplex(px.m, px.complex.facets)
    Y = SimplicialComplex(px.m, _closed_facets(keys))
    Y._simplex_cache = [()] + sorted(keys, key=lambda t: (len(t), t))
    return Y


def check_projection_theorem(px: PartitionedComplex,
                             guard=DEFAULT_SIMPLEX_GUARD):
    """Verify L(Y) <= r*L(X) + r - 1 for Y the image of the projection.

    r is a maximum over the points of X, so an X with no vertex (the void
    or the empty complex) raises ComplexError.  ``fiber_bound`` builds the
    section table, and Y is read off it (``_image``), so X's simplices are
    listed once for both."""
    lx = leray_by_links(px.complex, guard=guard).value
    r, witness = fiber_bound(px, guard=guard)
    if r == 0:
        raise ComplexError("the projection bound needs X to have a vertex")
    ly = leray_by_links(_image(px), guard=guard).value
    bound = r * lx + r - 1
    return {
        "claim": "projection_bound",
        "leray_x": lx,
        "fiber_bound": r,
        "fiber_witness": witness,
        "leray_y": ly,
        "bound": bound,
        "holds": ly <= bound,
        "tight": ly == bound,
    }


def check_mps_vanishing(pxs, guard=DEFAULT_MPC_SIMPLEX_GUARD):
    """Verify that the multiple-point complex of the factors has vanishing
    reduced homology from the sum of the factor Leray numbers on."""
    total = sum(leray_by_links(px.complex, guard=guard).value for px in pxs)
    M = generalized_mpc(pxs, guard=guard)
    rb = reduced_betti(M.complex, guard=guard)
    bad = [j for j, b in enumerate(rb.reduced) if j >= total and b != 0]
    return {
        "claim": "mps_vanishing",
        "leray_sum": total,
        "betti": rb.reduced,
        "violations": bad,
        "holds": not bad,
    }


def check_intersection_bound(Xs, guard=DEFAULT_SIMPLEX_GUARD):
    """Verify L of the intersection against the sum of Leray numbers."""
    if not Xs:
        raise ComplexError("at least one complex is required")
    inter = Xs[0]
    for X in Xs[1:]:
        inter = intersection(inter, X)
    values = [leray_by_links(X, guard=guard).value for X in Xs]
    l_inter = leray_by_links(inter, guard=guard).value
    return {
        "claim": "intersection_bound",
        "leray_each": values,
        "leray_intersection": l_inter,
        "holds": l_inter <= sum(values),
    }


# -- generators ------------------------------------------------------------


def extremal_example(r, d) -> PartitionedComplex:
    """The tight instance: m = r*d parts of size r; the complex is a
    disjoint union of r joins, each with one boundary-sphere factor.

    Vertex (i, j) for part i in [m], copy j in [r] has id i*r + j.  Copy k
    carries the join of the solid simplices on the blocks A_l x {k} (l != k)
    and the boundary complex on A_k x {k}.
    """
    if r < 1 or d < 2:
        raise ComplexError("require r >= 1 and d >= 2")
    m = r * d
    blocks = [tuple(range(l * d, (l + 1) * d)) for l in range(r)]
    facet_lists = []
    for k in range(r):
        choices = [()]
        for l in range(r):
            block_verts = tuple(i * r + k for i in blocks[l])
            if l == k:
                factors = list(combinations(block_verts, d - 1))
            else:
                factors = [block_verts]
            choices = [c + f for c in choices for f in factors]
        facet_lists.extend(choices)
    X = make_complex(facet_lists, vertex_count=m * r)
    parts = [tuple(i * r + j for j in range(r)) for i in range(m)]
    return make_partitioned(X, parts)


def random_partitioned_complex(m, part_sizes, dimension, density,
                               seed) -> PartitionedComplex:
    """Seeded random partitioned complex: every vertex is present and each
    cross-part candidate simplex of size 2..dimension+1 is kept with the
    given probability, then closed downward."""
    part_sizes = tuple(int(s) for s in part_sizes)
    if len(part_sizes) != m:
        raise ComplexError("expected %d part sizes" % m)
    if any(s < 1 for s in part_sizes):
        raise ComplexError("empty parts are not allowed")
    if not 0 <= density <= 1:
        raise ComplexError("density must lie in [0, 1]")
    parts = []
    start = 0
    for s in part_sizes:
        parts.append(tuple(range(start, start + s)))
        start += s
    rng = CounterRng(seed)
    facet_lists = [[v] for v in range(start)]
    top = min(dimension + 1, m)
    for size in range(2, top + 1):
        for part_combo in combinations(range(m), size):
            lists = [parts[i] for i in part_combo]
            stack = [()]
            for lst in lists:
                stack = [pre + (v,) for pre in stack for v in lst]
            for cand in stack:
                if rng.uniform() < density:
                    facet_lists.append(sorted(cand))
    X = make_complex(facet_lists, vertex_count=start)
    return make_partitioned(X, parts)


def random_complex(n, dimension, density, seed) -> SimplicialComplex:
    """Seeded random complex on n vertices (singleton parts)."""
    px = random_partitioned_complex(n, [1] * n, dimension, density, seed)
    return px.complex
