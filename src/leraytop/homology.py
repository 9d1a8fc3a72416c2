"""Exact rational simplicial homology via integer boundary matrices.

Every rank is taken by one routine, ``rank_of_rows``: fraction-free
elimination over arbitrary-precision integers (rows are rescaled by their
gcd after each pivot step), so no floating point is involved anywhere.
One top-down loop (``_betti_from_top``) gives the reduced Betti numbers
degree by degree, one new rank per degree.  ``reduced_betti`` takes the
whole vector from it.  ``top_nonzero_degree`` answers the Leray scan's one
question, the top nonzero degree, by one certificate (a hollow simplex, for
the top degree) and otherwise by the first nonzero degree the loop gives.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .core import DEFAULT_SIMPLEX_GUARD, SimplicialComplex


@dataclass(frozen=True)
class BettiVector:
    """Reduced rational Betti numbers, plus the (-1)-degree rank and Euler
    characteristic (unreduced, from face counts)."""
    reduced: tuple
    minus_one: int
    euler: int

    def degree(self, i):
        if i == -1:
            return self.minus_one
        if 0 <= i < len(self.reduced):
            return self.reduced[i]
        return 0

    def max_nonzero_degree(self):
        """Largest i >= 0 with a nonzero reduced Betti number, or None."""
        out = None
        for i, b in enumerate(self.reduced):
            if b:
                out = i
        return out


def rank_of_rows(rows) -> int:
    """Exact rank over Q of an integer matrix given as sparse rows (dicts
    col -> nonzero entry).

    Incremental fraction-free echelon form: pivot rows are kept by their
    largest column c; a row x is reduced by x <- p[c]*x - x[c]*p (both
    factors over their gcd) and divided by its content until its largest
    column has no pivot, and then becomes one unless it vanished.
    """
    pivots = {}
    for row in rows:
        x = dict(row)
        while x:
            c = max(x)
            p = pivots.get(c)
            if p is None:
                pivots[c] = x
                break
            g = gcd(p[c], x[c])
            a, b = p[c] // g, x[c] // g
            if a != 1:
                x = {k: a * v for k, v in x.items()}
            for k, v in p.items():
                w = x.get(k, 0) - b * v
                if w:
                    x[k] = w
                else:
                    del x[k]
            g = gcd(*x.values())
            if g > 1:
                x = {k: v // g for k, v in x.items()}
    return len(pivots)


def _chain_bases(X: SimplicialComplex, guard):
    """The simplices of X by degree, from one guarded enumeration: bases[q]
    in lexicographic order (q = -1 is the empty simplex), and index[q]
    mapping each q-simplex to its position."""
    bases = {}
    for s in X.all_simplices(include_empty=True, guard=guard):
        bases.setdefault(len(s) - 1, []).append(s)
    bases = {q: tuple(v) for q, v in bases.items()}
    index = {q: {s: i for i, s in enumerate(v)} for q, v in bases.items()}
    return bases, index


def _boundary_rows(bases, index, q):
    """The boundary from degree q >= 0 to q-1 as sparse rows, one per
    (q-1)-simplex, with the sorted-orientation sign convention."""
    rows = [dict() for _ in bases[q - 1]]
    ix = index[q - 1]
    for j, s in enumerate(bases[q]):
        for i in range(len(s)):
            face = s[:i] + s[i + 1:]
            rows[ix[face]][j] = -1 if i % 2 else 1
    return rows


def _betti_from_top(X: SimplicialComplex, above, guard):
    """Yield (q, dim C_q, reduced beta_q) of a non-void X for q from dim X
    down to above + 1, from one guarded enumeration.

    beta_q = dim C_q - rank d_q - rank d_{q+1}, where d_q is the boundary
    out of degree q.  The rank of d_{q+1} is the one the degree above took
    (0 at the top, as C_{d+1} = 0), so each degree costs one new rank, and
    d_{-1} = 0 takes none.
    """
    bases, index = _chain_bases(X, guard)
    upper = 0
    for q in range(X.dim, above, -1):
        rank = rank_of_rows(_boundary_rows(bases, index, q)) if q >= 0 else 0
        yield q, len(bases[q]), len(bases[q]) - rank - upper
        upper = rank


def reduced_betti(X: SimplicialComplex,
                  guard=DEFAULT_SIMPLEX_GUARD) -> BettiVector:
    """Reduced rational Betti numbers of X, computed exactly.

    Conventions: the void complex has all groups zero; the empty complex
    has rank one in degree -1 only.  The Euler characteristic comes from
    the face counts, not from the Betti numbers, so the two can be checked
    against each other.
    """
    if X.is_void():
        return BettiVector((), 0, 0)
    # degrees -1, 0, ..., dim X
    (_, _, minus_one), *rest = reversed(list(_betti_from_top(X, -2, guard)))
    reduced = tuple(beta for _, _, beta in rest)
    euler = sum((-1) ** q * dim_q for q, dim_q, _ in rest)
    return BettiVector(reduced, minus_one, euler)


def _hollow_simplex(X: SimplicialComplex) -> bool:
    """True when X, of dimension d >= 0, contains the boundary of a
    (d+1)-simplex: d+2 vertices whose d+2 d-faces are all facets of X.

    Works on the bitmasks of the d-facets.  ``comp[g]`` has bit w set when
    g + w is a d-facet, for each codimension-1 face g of a d-facet, and
    the face of f without its vertex bit u is f ^ u.  A vertex w outside
    the d-facet f is in the AND of comp[f ^ u] over u in f exactly when
    every f - u + w is a d-facet, i.e. when f + w is such a hollow simplex.
    """
    d = X.dim
    if d < 0:
        return False
    top = [[1 << v for v in f] for f in X.facets if len(f) == d + 1]
    comp = {}
    for us in top:
        f = sum(us)
        for u in us:
            comp[f ^ u] = comp.get(f ^ u, 0) | u
    for us in top:
        f = sum(us)
        common = -1
        for u in us:
            common &= comp[f ^ u]
        if common & ~f:
            return True
    return False


def top_nonzero_degree(X: SimplicialComplex, above=-1,
                       guard=DEFAULT_SIMPLEX_GUARD):
    """The largest q > above with a nonzero reduced rational Betti number
    of X, or None; the answer of ``reduced_betti`` with only the degrees
    needed decided.

    After the guarded enumeration of X, a hollow (d+1)-simplex
    (``_hollow_simplex``) answers d = dim X: its boundary is a nonzero
    d-cycle with coefficients +-1, and C_{d+1}(X) = 0, so no boundary can
    cancel it and beta_d(Q) > 0.  No chain basis is built then.

    Otherwise degrees are tried from d downwards by exact ranks
    (``_betti_from_top``), one new rank per degree, until one is nonzero.
    """
    if X.is_void() or X.dim <= above:
        return None
    d = X.dim
    # refuse an over-guard X before the certificate, as reduced_betti would
    X.all_simplices(include_empty=True, guard=guard)
    if _hollow_simplex(X):
        return d
    return next((q for q, _, beta in _betti_from_top(X, above, guard)
                 if beta), None)


def unreduced_betti(X: SimplicialComplex, guard=DEFAULT_SIMPLEX_GUARD):
    """Unreduced rational Betti numbers; empty for the void/empty complex."""
    if X.is_void() or X.is_empty():
        return ()
    rb = reduced_betti(X, guard=guard)
    return (rb.reduced[0] + 1,) + rb.reduced[1:]


def euler_characteristic(X: SimplicialComplex, guard=DEFAULT_SIMPLEX_GUARD):
    """Alternating sum of face counts (unreduced convention)."""
    total = 0
    for s in X.all_simplices(guard=guard):
        total += -1 if len(s) % 2 == 0 else 1
    return total
