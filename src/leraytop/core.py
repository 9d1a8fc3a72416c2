"""Abstract simplicial complexes stored by their facets.

A complex lives on a dense vertex table 0..n-1.  Two degenerate values are
distinguished throughout the library:

* the *void* complex: no simplices at all (``facets == frozenset()``);
* the *empty* complex: only the empty simplex (``facets == {()}``).

All values are immutable after construction and safe to share.
"""
from __future__ import annotations

from itertools import combinations

DEFAULT_SIMPLEX_GUARD = 2_000_000


class ComplexError(ValueError):
    """Invalid input to a complex construction."""


class GuardExceeded(ComplexError):
    """An enumeration would exceed the configured guard."""


def as_simplex(vertices) -> tuple:
    """Canonical simplex: strictly increasing tuple of vertex ids."""
    s = tuple(sorted(vertices))
    if len(set(s)) != len(s):
        raise ComplexError("duplicate vertex in simplex %r" % (vertices,))
    if s and s[0] < 0:
        raise ComplexError("negative vertex id in %r" % (vertices,))
    return s


def _maximal(simplices) -> frozenset:
    """Inclusion-maximal elements of a collection of simplices.

    Candidates come by decreasing size, so a candidate is absorbed exactly
    when some facet kept before it contains it.  ``kept[v]`` has bit j set
    when the j-th kept facet contains v, so that is the case exactly when
    the AND of its vertices' masks is nonzero; the empty simplex is absorbed
    by any kept facet.  Candidates are distinct, so one of the largest size
    lies in no other and is kept untested.
    """
    kept = {}
    out = []
    for s in sorted(set(simplices), key=len, reverse=True):
        if out and len(s) < len(out[0]):
            common = -1
            for v in s:
                common &= kept.get(v, 0)
                if not common:
                    break
            if common:
                continue
        bit = 1 << len(out)
        for v in s:
            kept[v] = kept.get(v, 0) | bit
        out.append(s)
    return frozenset(out)


def _closed_facets(simplices) -> frozenset:
    """Facets of a set of simplices closed under nonempty faces.

    In such a set a simplex lies in a larger one exactly when it is a
    codimension-1 face of a member, so marking every member's codimension-1
    faces leaves the facets unmarked: linear in the total size, where
    ``_maximal`` compares every pair.
    """
    simplices = set(simplices)
    covered = set()
    for s in simplices:
        for i in range(len(s)):
            covered.add(s[:i] + s[i + 1:])
    return frozenset(simplices - covered)


class SimplicialComplex:
    """A finite abstract simplicial complex, stored by its facets.

    ``labels`` optionally names the vertices for reports.  ``dim`` is the
    dimension, taken once from the immutable facets: the largest facet
    size minus one, so -1 for the empty complex and -2 for the void one.
    """

    __slots__ = ("vertex_count", "facets", "labels", "dim", "_simplex_cache")

    def __init__(self, vertex_count, facets, labels=None):
        self.vertex_count = int(vertex_count)
        self.facets = frozenset(map(tuple, facets))
        self.labels = tuple(labels) if labels is not None else None
        self.dim = max(map(len, self.facets), default=-1) - 1
        self._simplex_cache = None

    # -- basic queries -------------------------------------------------

    def is_void(self):
        return not self.facets

    def is_empty(self):
        """True for the complex whose only simplex is the empty one."""
        return self.facets == frozenset({()})

    def all_simplices(self, include_empty=False, guard=DEFAULT_SIMPLEX_GUARD):
        """Every simplex, sorted by (dimension, lex).  Guarded enumeration.

        The faces of each facet, largest facets first, go into one set per
        size; each set is sorted natively and the sets are joined by size,
        which is the (dimension, lex) order.  After each facet the running
        total over all sizes, empty simplex included, is checked against
        the guard.  The total only grows, so the enumeration is refused
        exactly when the whole list is longer than the guard, and stops at
        the first facet that takes it past.  A facet f has 2^|f| faces, so
        when these sum to at most the guard the list cannot pass it, and
        the running total is not taken.  When the largest facet's faces
        alone pass the guard, the enumeration is refused before any face
        is built; otherwise each facet overshoots the guard by at most the
        largest facet's 2^|f| faces.
        """
        if self._simplex_cache is None:
            facets = sorted(self.facets, key=len, reverse=True)
            checked = sum(1 << len(f) for f in facets) > guard
            if checked and 1 << len(facets[0]) > guard:
                raise GuardExceeded(
                    "simplex enumeration exceeds guard %d" % guard)
            levels = []
            for f in facets:
                if not levels:
                    levels = [set() for _ in range(len(f) + 1)]
                for q, level in enumerate(levels[:len(f) + 1]):
                    level.update(combinations(f, q))
                if checked and sum(map(len, levels)) > guard:
                    raise GuardExceeded(
                        "simplex enumeration exceeds guard %d" % guard)
            self._simplex_cache = []
            for level in levels:
                self._simplex_cache += sorted(level)
        elif len(self._simplex_cache) > guard:
            # a stored list refuses as its enumeration would, whichever
            # guard enumerated the complex first
            raise GuardExceeded(
                "simplex enumeration exceeds guard %d" % guard)
        out = self._simplex_cache
        if not include_empty and out and out[0] == ():
            return out[1:]
        return out

    def used_vertices(self):
        return set().union(*self.facets)

    # -- value semantics ----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return (self.vertex_count == other.vertex_count
                and self.facets == other.facets)

    def __hash__(self):
        return hash((self.vertex_count, self.facets))

    def __repr__(self):
        kind = "void" if self.is_void() else "empty" if self.is_empty() else ""
        facets = sorted(self.facets, key=lambda t: (len(t), t))
        return "SimplicialComplex(%d%s, facets=%r)" % (
            self.vertex_count, " " + kind if kind else "", facets)


# -- constructions -----------------------------------------------------


def make_complex(facet_lists, allow_void=False, vertex_count=None, labels=None):
    """Build a complex from facet candidates: deduplicate, absorb non-maximal.

    The vertex table is 0..max id; an empty input is rejected unless the
    caller explicitly requests the void complex via ``allow_void``.
    """
    facets = [as_simplex(f) for f in facet_lists]
    if not facets and not allow_void:
        raise ComplexError("empty facet list; pass allow_void=True for the "
                           "void complex")
    top = max((f[-1] for f in facets if f), default=-1)
    n = 1 + top if vertex_count is None else int(vertex_count)
    if top >= n:
        raise ComplexError("vertex id %d outside table of size %d" % (top, n))
    return SimplicialComplex(n, _maximal(facets), labels=labels)


def induced(X, S):
    """Induced subcomplex X[S], re-indexed: local vertex i is the i-th
    smallest id of S."""
    S = sorted(set(S))
    for v in S:
        if not (0 <= v < X.vertex_count):
            raise ComplexError("unknown vertex id %d" % v)
    idx = {v: i for i, v in enumerate(S)}
    if X.is_void():
        return SimplicialComplex(len(S), ())
    sset = set(S)
    cands = {tuple(idx[v] for v in f if v in sset) for f in X.facets}
    return SimplicialComplex(len(S), _maximal(cands))


def link(X, A):
    """lk(X, A): simplices disjoint from A whose union with A lies in X."""
    A = as_simplex(A)
    if not A:
        if X.is_void():
            raise ComplexError("simplex %r not in complex" % (A,))
        return X
    # f - A for the facets f containing A are pairwise incomparable
    # (f - A <= g - A would give f <= g), so they are the link's facets;
    # A lies in X exactly when there is one.
    aset = set(A)
    facets = [tuple([v for v in f if v not in aset])
              for f in X.facets if aset.issubset(f)]
    if not facets:
        raise ComplexError("simplex %r not in complex" % (A,))
    return SimplicialComplex(X.vertex_count, facets, labels=X.labels)


def _bits(simplex) -> int:
    """The bitmask of a vertex set: bit v set for each vertex v."""
    out = 0
    for v in simplex:
        out |= 1 << v
    return out


def _meet(facets, s):
    """The AND of the bitmasks in ``facets`` that contain the bitmask s,
    or -1 if none does.  Every such bitmask contains s, so the AND does
    too, and the loop stops once it equals s.

    For the facets of X, the AND of those containing a simplex sigma is
    sigma plus the apexes of lk(sigma): the vertices in every facet of
    the link.  lk(sigma) is a cone when there is one.
    """
    common = -1
    for f in facets:
        if f & s == s:
            common &= f
            if common == s:
                break
    return common


def _vertices(mask) -> tuple:
    """The simplex of a bitmask, the inverse of ``_bits``."""
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def _strong_core(facets):
    """The strong-collapse core of the complex whose facet bitmasks are
    ``facets``, as facet bitmasks: dominated vertices deleted until none
    is left.  Returns ``facets`` itself when no vertex is dominated.

    A vertex v is dominated when some w != v lies in every facet that
    contains v, i.e. when lk(v) is a cone (``_meet`` of v's bit is more
    than the bit).  Deleting v is a strong collapse and keeps the homotopy
    type (Barmak-Minian, "Strong homotopy types, nerves and collapses",
    Discrete Comput. Geom. 2012), so the reduced homology too.  The core
    is a subcomplex, so it has at most as many simplices as the complex.
    After deleting v the facets without v stay, and each f - v is a facet
    unless one of those contains it (the f - v are pairwise incomparable).
    The loop never leaves bitmasks, so a caller builds a tuple complex
    (``_vertices`` per facet) only for a core it needs one for.
    """
    used = 0
    for f in facets:
        used |= f
    vertices = [v for v in range(used.bit_length()) if used >> v & 1]
    while True:
        kept = []
        for v in vertices:
            bit = 1 << v
            if _meet(facets, bit) == bit:
                kept.append(v)
                continue
            rest = [f for f in facets if not f & bit]
            facets = rest + [g for g in (f ^ bit for f in facets if f & bit)
                             if not any(g & h == g for h in rest)]
        if len(kept) == len(vertices):
            return facets
        vertices = kept


def _check_same_table(X1, X2):
    if X1.vertex_count != X2.vertex_count:
        raise ComplexError("complexes are on different vertex tables "
                           "(%d vs %d)" % (X1.vertex_count, X2.vertex_count))


def intersection(X1, X2):
    """Intersection of two complexes on a shared vertex table."""
    _check_same_table(X1, X2)
    if X1.is_void() or X2.is_void():
        return SimplicialComplex(X1.vertex_count, ())
    cands = {tuple(sorted(set(f1) & set(f2)))
             for f1 in X1.facets for f2 in X2.facets}
    return SimplicialComplex(X1.vertex_count, _maximal(cands))


def _saturated_chains(top):
    """Saturated chains (ascending lists) from a vertex up to top."""
    if len(top) == 1:
        return [[top]]
    out = []
    for v in top:
        sub = tuple(x for x in top if x != v)
        for c in _saturated_chains(sub):
            out.append(c + [top])
    return out


def _order_complex(elements, chain_facets):
    """The order complex on ``elements``: vertex i is the i-th element, and
    each chain is a facet.  ``elements`` must be a duplicate-free list in
    (dimension, lex) order, as ``all_simplices`` gives it."""
    if not elements:
        return SimplicialComplex(0, ())
    idx = {e: i for i, e in enumerate(elements)}
    # nested saturated chains would end at nested facets, so at one facet,
    # and have one length: the chains are already pairwise incomparable
    facets = {tuple(sorted(idx[e] for e in chain)) for chain in chain_facets}
    return SimplicialComplex(len(elements), facets, labels=elements)


def subdivision(K, guard=DEFAULT_SIMPLEX_GUARD):
    """Barycentric subdivision: the order complex of the nonempty simplices."""
    if K.is_void():
        raise ComplexError("subdivision of the void complex is undefined")
    elements = K.all_simplices(guard=guard)
    chains = []
    for f in K.facets:
        if f:
            chains.extend(_saturated_chains(f))
    return _order_complex(elements, chains)

