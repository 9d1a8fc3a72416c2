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
    for a, b in zip(s, s[1:]):
        if a == b:
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
    by any kept facet.
    """
    kept = {}
    out = []
    for s in sorted(set(simplices), key=len, reverse=True):
        common = -1 if out else 0
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

    ``labels`` optionally names the vertices for reports; ``parent_map``
    records, for complexes derived by re-indexing (induced subcomplexes),
    the original id of each local vertex.
    """

    __slots__ = ("vertex_count", "facets", "labels", "parent_map",
                 "_facet_sets", "_simplex_cache")

    def __init__(self, vertex_count, facets, labels=None, parent_map=None):
        self.vertex_count = int(vertex_count)
        self.facets = frozenset(tuple(f) for f in facets)
        self.labels = tuple(labels) if labels is not None else None
        self.parent_map = tuple(parent_map) if parent_map is not None else None
        self._facet_sets = [set(f) for f in
                            sorted(self.facets, key=lambda t: (-len(t), t))]
        self._simplex_cache = None

    # -- basic queries -------------------------------------------------

    def is_void(self):
        return not self.facets

    def is_empty(self):
        """True for the complex whose only simplex is the empty one."""
        return self.facets == frozenset({()})

    @property
    def dim(self):
        """Dimension; -1 for the empty complex, -2 for the void complex."""
        if not self.facets:
            return -2
        return max(len(f) for f in self.facets) - 1

    def contains(self, simplex) -> bool:
        s = set(simplex)
        if not s:
            return not self.is_void()
        return any(s <= fs for fs in self._facet_sets)

    def all_simplices(self, include_empty=False, guard=DEFAULT_SIMPLEX_GUARD):
        """Every simplex, sorted by (dimension, lex).  Guarded enumeration."""
        if self._simplex_cache is None:
            seen = set()
            for f in sorted(self.facets, key=lambda t: (-len(t), t)):
                if f in seen:
                    continue
                for q in range(len(f) + 1):
                    seen.update(combinations(f, q))
                if len(seen) > guard:
                    raise GuardExceeded(
                        "simplex enumeration exceeds guard %d" % guard)
            self._simplex_cache = sorted(seen, key=lambda t: (len(t), t))
        elif len(self._simplex_cache) > guard:
            # a stored list refuses as its enumeration would, whichever
            # guard enumerated the complex first
            raise GuardExceeded(
                "simplex enumeration exceeds guard %d" % guard)
        out = self._simplex_cache
        if not include_empty and out and out[0] == ():
            return out[1:]
        return out

    def f_vector(self):
        """Face counts (f_0, f_1, ...); empty tuple for void/empty complexes."""
        counts = {}
        for s in self.all_simplices():
            counts[len(s) - 1] = counts.get(len(s) - 1, 0) + 1
        if not counts:
            return ()
        return tuple(counts.get(q, 0) for q in range(max(counts) + 1))

    def used_vertices(self):
        out = set()
        for f in self.facets:
            out.update(f)
        return out

    def relabel(self, mapping):
        """Image under a vertex bijection given as a sequence new_id[old_id]."""
        if sorted(mapping) != list(range(self.vertex_count)):
            raise ComplexError("mapping is not a bijection of the vertex table")
        facets = [tuple(sorted(mapping[v] for v in f)) for f in self.facets]
        labels = None
        if self.labels is not None:
            labels = [None] * self.vertex_count
            for old, lab in enumerate(self.labels):
                labels[mapping[old]] = lab
        return SimplicialComplex(self.vertex_count, facets, labels=labels)

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


class OrderComplex(SimplicialComplex):
    """A complex whose vertices are labeled by simplices of a source complex."""


# -- constructions -----------------------------------------------------


def void_complex(n=0):
    return SimplicialComplex(n, ())


def empty_complex(n=0):
    return SimplicialComplex(n, ((),))


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


def solid_simplex(vertices):
    """The full simplex on the given vertex set."""
    return make_complex([as_simplex(vertices)])


def induced(X, S):
    """Induced subcomplex X[S], re-indexed; parent ids kept in parent_map."""
    S = sorted(set(S))
    for v in S:
        if not (0 <= v < X.vertex_count):
            raise ComplexError("unknown vertex id %d" % v)
    idx = {v: i for i, v in enumerate(S)}
    if X.is_void():
        return SimplicialComplex(len(S), (), parent_map=S)
    sset = set(S)
    cands = {tuple(idx[v] for v in f if v in sset) for f in X.facets}
    return SimplicialComplex(len(S), _maximal(cands), parent_map=S)


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


def join(X1, X2):
    """Join of two complexes; the vertex tables are concatenated."""
    n1 = X1.vertex_count
    n = n1 + X2.vertex_count
    if X1.is_void() or X2.is_void():
        return SimplicialComplex(n, ())
    facets = {f1 + tuple(v + n1 for v in f2)
              for f1 in X1.facets for f2 in X2.facets}
    labels = None
    if X1.labels is not None and X2.labels is not None:
        labels = X1.labels + X2.labels
    return SimplicialComplex(n, facets, labels=labels)


def boundary_complex(A):
    """The boundary of the simplex on vertex set A (a sphere S^{|A|-2})."""
    A = as_simplex(A)
    if not A:
        raise ComplexError("boundary of the empty vertex set is undefined")
    facets = list(combinations(A, len(A) - 1))
    return SimplicialComplex(1 + A[-1], facets)


def _check_same_table(X1, X2):
    if X1.vertex_count != X2.vertex_count:
        raise ComplexError("complexes are on different vertex tables "
                           "(%d vs %d)" % (X1.vertex_count, X2.vertex_count))


def union(X1, X2):
    """Union of two complexes on a shared vertex table."""
    _check_same_table(X1, X2)
    return SimplicialComplex(X1.vertex_count, _maximal(X1.facets | X2.facets))


def intersection(X1, X2):
    """Intersection of two complexes on a shared vertex table."""
    _check_same_table(X1, X2)
    if X1.is_void() or X2.is_void():
        return SimplicialComplex(X1.vertex_count, ())
    cands = {tuple(sorted(set(f1) & set(f2)))
             for f1 in X1.facets for f2 in X2.facets}
    return SimplicialComplex(X1.vertex_count, _maximal(cands))


def _saturated_chains(top, sigma, stop_size):
    """Saturated chains (ascending lists) from size stop_size up to top,
    removing only vertices outside sigma."""
    if len(top) == stop_size:
        return [[top]]
    out = []
    for v in top:
        if v in sigma:
            continue
        sub = tuple(x for x in top if x != v)
        for c in _saturated_chains(sub, sigma, stop_size):
            out.append(c + [top])
    return out


def _order_complex(elements, chain_facets):
    elements = sorted(set(elements), key=lambda t: (len(t), t))
    if not elements:
        return OrderComplex(0, ())
    idx = {e: i for i, e in enumerate(elements)}
    facets = {tuple(sorted(idx[e] for e in chain)) for chain in chain_facets}
    return OrderComplex(len(elements), _maximal(facets), labels=elements)


def subdivision(K, guard=DEFAULT_SIMPLEX_GUARD):
    """Barycentric subdivision: the order complex of the nonempty simplices."""
    if K.is_void():
        raise ComplexError("subdivision of the void complex is undefined")
    elements = K.all_simplices(guard=guard)
    chains = []
    for f in K.facets:
        if f:
            chains.extend(_saturated_chains(f, (), 1))
    return _order_complex(elements, chains)


def upper_interval(K, sigma, guard=DEFAULT_SIMPLEX_GUARD):
    """Order complexes of the intervals [sigma, .] and (sigma, .] in K."""
    sigma = as_simplex(sigma)
    if not K.contains(sigma):
        raise ComplexError("simplex %r not in complex" % (sigma,))
    sset = set(sigma)
    tops = [f for f in K.facets if sset <= set(f)]
    elements = [t for t in K.all_simplices(include_empty=True, guard=guard)
                if sset <= set(t) and (t or not sigma)]
    closed_chains = []
    strict_chains = []
    for f in tops:
        closed_chains.extend(_saturated_chains(f, sset, len(sigma)))
        if len(f) > len(sigma):
            strict_chains.extend(_saturated_chains(f, sset, len(sigma) + 1))
    closed = _order_complex(elements, closed_chains)
    strict = _order_complex([e for e in elements if len(e) > len(sigma)],
                            strict_chains)
    return closed, strict


# -- graphs ------------------------------------------------------------


def _normalize_edges(edges):
    out = set()
    for e in edges:
        u, v = e
        if u == v:
            raise ComplexError("self-loop at vertex %r" % (u,))
        if u < 0 or v < 0:
            raise ComplexError("negative vertex id in edge %r" % (e,))
        out.add((min(u, v), max(u, v)))
    return sorted(out)


def _bron_kerbosch(adj, r, p, x, out):
    if not p and not x:
        out.append(tuple(sorted(r)))
        return
    pivot = max(p | x, key=lambda u: len(adj[u] & p))
    for v in sorted(p - adj[pivot]):
        _bron_kerbosch(adj, r | {v}, p & adj[v], x & adj[v], out)
        p = p - {v}
        x = x | {v}


def clique_complex(edges, n=None):
    """The complex of cliques of a simple graph on vertices 0..n-1."""
    edges = _normalize_edges(edges)
    top = max((e[1] for e in edges), default=-1)
    if n is None:
        n = top + 1
    if top >= n:
        raise ComplexError("edge endpoint outside vertex table")
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    if n == 0:
        return SimplicialComplex(0, ())
    cliques = []
    _bron_kerbosch(adj, set(), set(range(n)), set(), cliques)
    return SimplicialComplex(n, cliques)


def is_chordal(edges, n=None):
    """Chordality via maximum cardinality search and a perfect elimination
    ordering check."""
    edges = _normalize_edges(edges)
    top = max((e[1] for e in edges), default=-1)
    if n is None:
        n = top + 1
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    # maximum cardinality search, producing vertices in reverse elimination
    # order
    weight = {v: 0 for v in range(n)}
    order = []
    remaining = set(range(n))
    while remaining:
        v = max(sorted(remaining), key=lambda u: weight[u])
        order.append(v)
        remaining.discard(v)
        for u in adj[v] & remaining:
            weight[u] += 1
    pos = {v: i for i, v in enumerate(order)}
    # elimination order is reversed MCS order; check each vertex's earlier
    # (in MCS order) neighbors form a clique with its closest one
    for v in reversed(order):
        earlier = {u for u in adj[v] if pos[u] < pos[v]}
        if not earlier:
            continue
        w = max(earlier, key=lambda u: pos[u])
        if not (earlier - {w}) <= adj[w]:
            return False
    return True


def is_isomorphism(X, Y, vertex_map) -> bool:
    """Check that vertex_map (old id -> new id) is a simplicial isomorphism
    between the used vertices of X and Y."""
    used_x = sorted(X.used_vertices())
    used_y = sorted(Y.used_vertices())
    images = [vertex_map[v] for v in used_x]
    if sorted(images) != used_y:
        return False
    mapped = {tuple(sorted(vertex_map[v] for v in f)) for f in X.facets}
    return mapped == set(Y.facets)
