"""Exact rational simplicial homology via integer boundary matrices.

Ranks are computed by fraction-free elimination over arbitrary-precision
integers (rows are rescaled by their gcd after each pivot step), so no
floating point is involved anywhere.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .core import DEFAULT_SIMPLEX_GUARD, SimplicialComplex


@dataclass
class ChainBoundary:
    """Bases and boundary matrices of the augmented rational chain complex.

    ``bases[q]`` lists the q-simplices in lexicographic order, for q from -1
    (the empty simplex, handling reduced homology) up to dim(X).
    ``matrices[q]`` is the boundary from degree q to q-1, stored as sparse
    rows (one dict col->entry per element of ``bases[q-1]``).
    """
    bases: dict
    matrices: dict

    def dim_chain(self, q):
        return len(self.bases.get(q, ()))


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


def rank_mod2(masks) -> int:
    """Rank over GF(2) of a 0/1 matrix given as one int bitmask per row.

    XOR elimination: pivot rows are kept by their highest set bit, and a row
    is reduced by the pivot at its highest bit until it has none or
    vanishes.
    """
    pivots = {}
    for x in masks:
        while x:
            top = x.bit_length() - 1
            p = pivots.get(top)
            if p is None:
                pivots[top] = x
                break
            x ^= p
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


def _boundary_masks(bases, index, q):
    """The boundary from degree q >= 0 to q-1 over GF(2), transposed: one
    bitmask per q-simplex with the bits of its (q-1)-faces."""
    ix = index[q - 1]
    out = []
    for s in bases[q]:
        m = 0
        for i in range(len(s)):
            m |= 1 << ix[s[:i] + s[i + 1:]]
        out.append(m)
    return out


def boundary_matrices(X: SimplicialComplex,
                      guard=DEFAULT_SIMPLEX_GUARD) -> ChainBoundary:
    """Boundary matrices of X with the sorted-orientation sign convention,
    augmented with the all-ones map to the empty simplex."""
    bases, index = _chain_bases(X, guard)
    matrices = {q: _boundary_rows(bases, index, q)
                for q in sorted(bases) if q >= 0}
    return ChainBoundary(bases, matrices)


def reduced_betti(X: SimplicialComplex,
                  guard=DEFAULT_SIMPLEX_GUARD) -> BettiVector:
    """Reduced rational Betti numbers of X, computed exactly.

    Conventions: the void complex has all groups zero; the empty complex
    has rank one in degree -1 only.
    """
    if X.is_void():
        return BettiVector((), 0, 0)
    cb = boundary_matrices(X, guard=guard)
    ranks = {q: rank_of_rows(m) for q, m in cb.matrices.items()}
    d = X.dim
    reduced = tuple(cb.dim_chain(q) - ranks.get(q, 0) - ranks.get(q + 1, 0)
                    for q in range(d + 1))
    minus_one = 1 - ranks.get(0, 0)
    euler = sum((-1) ** q * cb.dim_chain(q) for q in range(d + 1))
    return BettiVector(reduced, minus_one, euler)


def top_nonzero_degree(X: SimplicialComplex, above=-1,
                       guard=DEFAULT_SIMPLEX_GUARD):
    """The largest q > above with a nonzero reduced rational Betti number
    of X, or None; the answer of ``reduced_betti`` with only the degrees
    needed decided.

    Degrees are tried from d = dim X downwards, each decided by the first
    of three certificates that applies:

    * mod-2 zero: by universal coefficients beta_q(Q) <= beta_q(F_2), so a
      GF(2) Betti number of 0 proves beta_q(Q) = 0;
    * Euler bound, at q = d only: the reduced Euler characteristic is
      sum_q (-1)^q beta_q over every field, so beta_d(Q) >=
      (-1)^d chi - sum of beta_q(F_2) over q < d with d - q even, and a
      positive bound proves beta_d(Q) > 0;
    * otherwise exact ranks by ``rank_of_rows``, each computed at most once.
    """
    if X.is_void() or X.dim <= above:
        return None
    d = X.dim
    bases, index = _chain_bases(X, guard)
    mod2 = {d + 1: 0}
    exact = {d + 1: 0}

    def betti(q, ranks, rank):
        for p in (q, q + 1):
            if p not in ranks:
                ranks[p] = rank(p)
        return len(bases[q]) - ranks[q] - ranks[q + 1]

    def betti_mod2(q):
        return betti(q, mod2, lambda p: rank_mod2(
            _boundary_masks(bases, index, p)))

    for q in range(d, above, -1):
        if not betti_mod2(q):
            continue
        if q == d:
            chi = sum((-1) ** p * len(bases[p]) for p in range(-1, d + 1))
            if (-1) ** d * chi > sum(betti_mod2(p)
                                     for p in range(d - 2, -1, -2)):
                return d
        if betti(q, exact, lambda p: rank_of_rows(
                _boundary_rows(bases, index, p))):
            return q
    return None


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
