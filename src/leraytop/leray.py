"""Rational Leray numbers, by two independent algorithms.

The Leray number is the minimal d such that every induced subcomplex has
vanishing reduced rational homology in all degrees >= d.  It can equally be
read off the links: L(X) <= d iff every link has vanishing reduced homology
in degrees >= d.  ``leray_by_definition`` enumerates induced subcomplexes
(the oracle), ``leray_by_links`` scans links (the default algorithm); the
two are cross-validated throughout the test corpus.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core import (DEFAULT_SIMPLEX_GUARD, ComplexError, SimplicialComplex,
                   clique_complex, induced, is_chordal, link)
from .homology import reduced_betti, top_nonzero_degree

DEFAULT_DEFINITION_CAP = 18

# links on at most this many vertices (at most 2^8 simplices) get their
# full exact Betti vector in the links scan
_EXACT_LINK_VERTICES = 8


@dataclass(frozen=True)
class LerayCertificate:
    """The Leray number with a re-checkable witness.

    For value d > 0 the witness is ((kind, descriptor), d - 1) where kind is
    "induced" (descriptor = vertex subset) or "link" (descriptor = simplex)
    and the reduced Betti number of the described complex is nonzero in
    degree d - 1.
    """
    value: int
    witness: tuple
    method: str


def _is_cone(X: SimplicialComplex) -> bool:
    """True if some vertex lies in every facet (hence X is contractible)."""
    if X.is_void() or X.is_empty():
        return False
    common = None
    for f in X.facets:
        fs = set(f)
        common = fs if common is None else common & fs
        if not common:
            return False
    return bool(common)


def leray_by_definition(X: SimplicialComplex, cap=DEFAULT_DEFINITION_CAP,
                        guard=DEFAULT_SIMPLEX_GUARD) -> LerayCertificate:
    """L(X) by enumerating all induced subcomplexes (exponential oracle)."""
    n = X.vertex_count
    if n > cap:
        raise ComplexError(
            "vertex count %d exceeds the definition-method cap %d; "
            "use leray_by_links" % (n, cap))
    best = -1
    witness = None
    for size in range(n + 1):
        for S in combinations(range(n), size):
            Y = induced(X, S)
            if _is_cone(Y):
                continue
            top = reduced_betti(Y, guard=guard).max_nonzero_degree()
            if top is not None and top > best:
                best = top
                witness = (("induced", S), top)
    return LerayCertificate(best + 1, witness, "definition")


def leray_by_links(X: SimplicialComplex,
                   guard=DEFAULT_SIMPLEX_GUARD) -> LerayCertificate:
    """L(X) by scanning the links of all simplices (including the empty
    one); polynomial in the number of simplices.

    Pruned but exact: reduced homology of lk(sigma) vanishes above its
    dimension, which is at most dim X - |sigma|.  Simplices come by size,
    so the scan stops once dim X - |sigma| <= best and skips links of
    dimension <= best; neither can improve on best, so the witness is
    still the first strict improvement in scan order.  A link on more
    than eight vertices is asked only for its largest nonzero degree above
    best (``homology.top_nonzero_degree``).  A smaller one, of at most 2^8
    simplices, gets its full ``reduced_betti``: perfbench's tracer test
    and its ``leray.cone_skip_ratio`` read the reduced_betti calls made
    under this scan.
    """
    best = -1
    witness = None
    if not X.is_void():
        dim_x = X.dim
        for sigma in X.all_simplices(include_empty=True, guard=guard):
            if dim_x - len(sigma) <= best:
                break
            lk = link(X, sigma)
            if lk.dim <= best or _is_cone(lk):
                continue
            if len(lk.used_vertices()) <= _EXACT_LINK_VERTICES:
                top = reduced_betti(lk, guard=guard).max_nonzero_degree()
                if top is not None and top <= best:
                    top = None
            else:
                top = top_nonzero_degree(lk, best, guard=guard)
            if top is not None:
                best = top
                witness = (("link", sigma), top)
    return LerayCertificate(best + 1, witness, "links")


def leray_number(X, guard=DEFAULT_SIMPLEX_GUARD) -> int:
    """The production Leray number (link method)."""
    return leray_by_links(X, guard=guard).value


def check_witness(X, cert: LerayCertificate) -> bool:
    """Re-check a certificate: its witness complex must have a nonzero
    reduced Betti number at the recorded degree."""
    if cert.value == 0:
        return cert.witness is None
    (kind, descr), degree = cert.witness
    if kind == "induced":
        Y = induced(X, descr)
    elif kind == "link":
        Y = link(X, descr)
    else:
        raise ComplexError("unknown witness kind %r" % (kind,))
    return reduced_betti(Y).degree(degree) != 0 and degree == cert.value - 1


def check_chordal_characterization(edges, n=None, guard=DEFAULT_SIMPLEX_GUARD):
    """Report on the equivalence: G chordal iff the clique complex has
    Leray number at most 1."""
    chordal = is_chordal(edges, n=n)
    X = clique_complex(edges, n=n)
    value = leray_by_links(X, guard=guard).value
    return {
        "chordal": chordal,
        "leray": value,
        "holds": chordal == (value <= 1),
    }
