"""Alternating chain complexes of multiple-point complexes, the first page
of the image computing spectral sequence, and its consistency checks.

The orbit scan (``alt_chain_complex``) builds the symmetric-group action on
a built M_k itself, one vertex map per permutation of the k coordinates,
and spans the alternating subcomplex, per degree, by one representative of
each simplex orbit whose setwise stabilizer acts only by even vertex
permutations relative to the permutation sign (the sign-isotypic survival
condition).  The library keeps only these representatives, which
``check_alt_chain_iso`` compares; the action as an object, the boundary
restricted to the representatives, their homology and the numerical
projector are test oracles.

The E1 page builds no M_k.  A simplex of M_k over an image simplex I is a
k-tuple of sections of X over I.  A tuple with a repeated section is fixed
by the transposition of the repeat, with sign -1, so its orbit dies; one of
distinct sections has a trivial stabilizer.  Hence
Alt C_q(M_k) = sum over |I| = q+1 of Lambda^k(Q^{sections over I}), of
dimension sum_I C(n_I, k) for n_I sections over I: the alternating chain
complex of the image computing spectral sequence (Goryunov-Mond 1993;
Houston 1999).  ``_closed_alt_betti`` computes each column in this form
from the section table; the tests check it against the orbit scan.  In this
form the zero column p = r is C(n_I, r+1) = 0 and the Euler sum is
sum_k (-1)^(k-1) C(n_I, k) = 1 for each image simplex, so both checks hold
at chain level; the homology-level content of the page is the vanishing
region of ``check_proof_vanishing``.  Page differentials are out of scope:
only dimensions and their numerical consequences (vanishing regions, Euler
consistency) are computed.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from math import factorial

from .core import ComplexError, GuardExceeded, SimplicialComplex, _maximal
from .homology import euler_characteristic, rank_of_rows
from .leray import leray_by_links
from .multiproj import (DEFAULT_MPC_SIMPLEX_GUARD, MultiPointComplex,
                        PartitionedComplex, _check_simplex_count,
                        _check_vertex_bound, _mpc_simplex_count,
                        _sections, project)


def _sort_sign(values):
    """Sign of the permutation sorting a list of distinct values (the
    parity of its inversions), or 0 on a repeat."""
    vals = list(values)
    if len(set(vals)) < len(vals):
        return 0
    inversions = sum(a > b for i, a in enumerate(vals) for b in vals[i + 1:])
    return -1 if inversions % 2 else 1


@dataclass
class AltChainComplex:
    """Basis of the alternating subspace of the chain complex of a
    multiple-point complex: one representative per surviving orbit."""
    reps: dict            # degree -> list of simplices (lex-least reps)

    def dim(self, q):
        return len(self.reps.get(q, ()))


DEFAULT_ALT_WORK_GUARD = 2_000_000


def _check_orbit_work(simplex_count, group_order):
    """Refuse an orbit scan of every simplex under every group element
    that would exceed DEFAULT_ALT_WORK_GUARD, read at call time."""
    if group_order * simplex_count > DEFAULT_ALT_WORK_GUARD:
        raise GuardExceeded(
            "alternating-orbit scan (%d simplices x %d group elements) "
            "exceeds work guard %d"
            % (simplex_count, group_order, DEFAULT_ALT_WORK_GUARD))


def alt_chain_complex(M: MultiPointComplex,
                      guard=DEFAULT_MPC_SIMPLEX_GUARD) -> AltChainComplex:
    """Orbit-representative basis of the alternating chains: in each
    degree, the lex-least simplex of every orbit whose stabilizer acts with
    sign +1.  Each degree of M has a key, with an empty list when every
    orbit dies.

    A permutation of the k coordinates moves the vertex (part, t) to
    (part, t permuted); its sign times the sign of sorting the image of a
    simplex is the sign with which it maps the simplex."""
    if not M.equal_factors:
        raise ComplexError("the symmetric action needs equal factors")
    simplices = M.complex.all_simplices(guard=guard)
    # refused before the k! vertex maps are built
    _check_orbit_work(len(simplices), factorial(M.k))
    labels = list(zip(M.part_of_vertex, M.tuples))
    index = {label: v for v, label in enumerate(labels)}
    actions = [(_sort_sign(perm),
                [index[(part, tuple(t[j] for j in perm))]
                 for part, t in labels])
               for perm in permutations(range(M.k))]
    reps = {}
    seen = set()            # the simplices of the orbits scanned so far
    for s in simplices:
        reps_q = reps.setdefault(len(s) - 1, [])
        if s in seen:
            continue
        alive = True
        for gsign, vmap in actions:
            images = [vmap[v] for v in s]
            t = tuple(sorted(images))
            if t == s and gsign * _sort_sign(images) == -1:
                alive = False
            seen.add(t)
        if alive:
            reps_q.append(s)
    return AltChainComplex(reps)


@dataclass(frozen=True)
class E1Page:
    """First page of the image computing spectral sequence: column p holds
    the alternating homology of the (p+1)-fold multiple-point complex."""
    r: int
    table: dict           # (p, q) -> natural, for 0 <= p <= r-1
    extra_column_zero: bool

    def signed_sum(self):
        return sum((-1) ** (p + q) * n for (p, q), n in self.table.items())


def _refuse_over_guard(px: PartitionedComplex, table, r, guard):
    """Raise the GuardExceeded that building M_1..M_{r+1} and scanning
    their orbits would raise first, without building any of them.

    The size of each M_k comes from the section table of ``px``; each k is
    checked as ``generalized_mpc``, ``all_simplices`` (which counts the
    empty simplex) and ``alt_chain_complex`` would check it, in that order.
    That is the order of the page built from M_1..M_{r+1} in the tests
    (``oracles.e1_page_by_building``).
    """
    for k in range(1, r + 2):
        _check_vertex_bound(px.parts, k)
        size = _mpc_simplex_count([table] * k)
        _check_simplex_count(size, guard)
        if not size:
            continue            # a void M_k is neither enumerated nor scanned
        if size + 1 > guard:
            raise GuardExceeded(
                "simplex enumeration exceeds guard %d" % guard)
        _check_orbit_work(size, factorial(k))


def _section_faces(px: PartitionedComplex, sections) -> dict:
    """For each image simplex I of at least two parts, and each j in turn:
    the face F = I minus I[j] and, for each section over I, the position of
    its restriction to F in ``sections[F]``."""
    owner = px.part_of()
    faces = {}
    for I, secs in sections.items():
        if len(I) < 2:
            continue
        out = []
        for j, part in enumerate(I):
            F = I[:j] + I[j + 1:]
            where = {s: i for i, s in enumerate(sections[F])}
            out.append((F, tuple(where[tuple(v for v in s if owner[v] != part)]
                                 for s in secs)))
        faces[I] = out
    return faces


def _closed_alt_betti(sections, faces, k, top):
    """Alternating Betti numbers of M_k in degrees 0..top, from the section
    table alone.

    Alt C_q(M_k) is the sum over image simplices I with |I| = q+1 of
    Lambda^k(Q^{sections over I}): a basis vector is a k-subset of the
    sections over I.  Its boundary drops I[j] with sign (-1)^j and
    restricts each section; the term is 0 when two restrictions coincide
    and otherwise carries the sign of sorting their positions.
    """
    dims = [0] * (top + 1)
    index = {}              # I -> {k-subset: position in its degree's basis}
    for I, secs in sections.items():
        q = len(I) - 1
        index[I] = {A: i for i, A in enumerate(
            combinations(range(len(secs)), k), dims[q])}
        dims[q] += len(index[I])
    rows = [[] for _ in range(top + 2)]     # rows[q]: boundary of degree q
    for I, basis in index.items():
        if len(I) < 2:
            continue                        # unreduced: vertices are cycles
        for A in basis:
            row = {}
            for j, (F, pos) in enumerate(faces[I]):
                image = [pos[a] for a in A]
                sign = _sort_sign(image)
                if sign:
                    row[index[F][tuple(sorted(image))]] = \
                        -sign if j % 2 else sign
            rows[len(I) - 1].append(row)
    ranks = [rank_of_rows(m) if m else 0 for m in rows]
    return tuple(dims[q] - ranks[q] - ranks[q + 1] for q in range(top + 1))


def e1_page(px: PartitionedComplex,
            guard=DEFAULT_MPC_SIMPLEX_GUARD) -> E1Page:
    """Compute the page columns p = 0..r-1, plus the column at p = r which
    must be identically zero.

    Guard refusals are decided from the section table before anything is
    built, as building M_1..M_{r+1} would decide them.  No multiple-point
    complex is built: each column comes from the section table by
    ``_closed_alt_betti``, padded to dim(image)+1 degrees like the
    alternating homology of a non-void M_k.  The page is computed once per
    ``px`` and kept on it; the guards are checked on every call, so a
    smaller guard still refuses.
    """
    # X is enumerated under the guard after the k = 1 vertex bound, as
    # building M_1 would do
    _check_vertex_bound(px.parts, 1)
    sections = _sections(px, guard)
    r = max(map(len, sections.values()), default=0)
    _refuse_over_guard(px, sections, r, guard)
    if px._e1_page is None:
        faces = _section_faces(px, sections)
        top = max(map(len, sections), default=0) - 1
        table = {}
        for p in range(r):
            for q, n in enumerate(_closed_alt_betti(sections, faces, p + 1,
                                                    top)):
                table[(p, q)] = n
        extra = _closed_alt_betti(sections, faces, r + 1, top)
        # PartitionedComplex is frozen; the page is not part of its value
        object.__setattr__(px, "_e1_page", E1Page(
            r, table, all(n == 0 for n in extra)))
    return px._e1_page


def double_point_closure(M: MultiPointComplex,
                         guard=DEFAULT_MPC_SIMPLEX_GUARD) -> MultiPointComplex:
    """The subcomplex generated by simplices whose k coordinate sections are
    pairwise distinct, together with all their faces."""
    if not M.equal_factors:
        raise ComplexError("double-point closure needs equal factors")
    gens = []
    for s in M.complex.all_simplices(guard=guard):
        secs = [frozenset(M.tuples[v][r] for v in s) for r in range(M.k)]
        if len(set(secs)) == M.k:
            gens.append(s)
    cx = SimplicialComplex(M.complex.vertex_count, _maximal(gens),
                           labels=M.complex.labels)
    return MultiPointComplex(cx, M.k, M.parts, M.part_of_vertex, M.tuples,
                             M.equal_factors)


def check_alt_chain_iso(M: MultiPointComplex, guard=DEFAULT_MPC_SIMPLEX_GUARD):
    """The inclusion of the distinct-coordinates subcomplex induces a
    bijection on alternating chains: compare orbit bases per degree."""
    D = double_point_closure(M, guard=guard)
    alt_m = alt_chain_complex(M, guard=guard)
    alt_d = alt_chain_complex(D, guard=guard)
    degrees = sorted(set(alt_m.reps) | set(alt_d.reps))
    dims = {q: (alt_m.dim(q), alt_d.dim(q)) for q in degrees}
    bijective = all(sorted(alt_m.reps.get(q, [])) == sorted(alt_d.reps.get(q, []))
                    for q in degrees)
    return {
        "claim": "alt_chain_inclusion",
        "dims": dims,
        "holds": bijective,
    }


def check_euler(px: PartitionedComplex, guard=DEFAULT_MPC_SIMPLEX_GUARD):
    """Euler characteristic of the image equals the signed page sum."""
    page = e1_page(px, guard=guard)
    chi = euler_characteristic(project(px))
    return {
        "claim": "e1_euler_consistency",
        "chi_image": chi,
        "page_sum": page.signed_sum(),
        "extra_column_zero": page.extra_column_zero,
        "holds": chi == page.signed_sum() and page.extra_column_zero,
    }


def check_proof_vanishing(px: PartitionedComplex,
                          guard=DEFAULT_MPC_SIMPLEX_GUARD):
    """The page vanishes on the region p <= r-1, p+q >= r*L(X)+r-1 (for a
    complex with positive Leray number; with L(X) = 0 the degree-0 entries
    are exempt)."""
    lx = leray_by_links(px.complex, guard=guard).value
    page = e1_page(px, guard=guard)
    r = page.r
    threshold = r * lx + r - 1
    bad = []
    for (p, q), n in page.table.items():
        if p + q >= threshold and n != 0:
            if lx == 0 and q == 0:
                continue
            bad.append((p, q, n))
    return {
        "claim": "proof_region_vanishing",
        "leray_x": lx,
        "r": r,
        "threshold": threshold,
        "violations": bad,
        "holds": not bad,
    }
