"""Independent test oracles: Smith-normal-form homology, brute-force
simplex-set operations, exhaustive enumeration of small complexes, and the
unpruned or pre-optimisation forms of the library's fast paths.

Everything here is deliberately naive and shares no code path with the
library's homology/rank implementation.
"""
from itertools import combinations

from leraytop import ComplexError, SimplicialComplex, project
from leraytop.core import _closed_facets, as_simplex
from leraytop.helly import (FamilyError, FrFamily, FrValidationError,
                            box_meet, boxes_disjoint)
from leraytop.homology import unreduced_betti
from leraytop.icss import E1Page, alt_betti
from leraytop.multiproj import (DEFAULT_MPC_SIMPLEX_GUARD, MultiPointComplex,
                                _check_simplex_count, _check_vertex_bound,
                                fiber_bound, multiple_point_complex)


def all_faces(facets, include_empty=False):
    out = set()
    for f in facets:
        for q in range(0 if include_empty else 1, len(f) + 1):
            out.update(combinations(f, q))
    if include_empty:
        out.add(())
    return out


def smith_rank(matrix):
    """Rank over Z (= rank over Q) by full Smith normal form reduction."""
    m = [row[:] for row in matrix]
    if not m or not m[0]:
        return 0
    rows, cols = len(m), len(m[0])
    rank = 0
    r = c = 0
    while r < rows and c < cols:
        # find a nonzero pivot of minimal absolute value
        pivot = None
        for i in range(r, rows):
            for j in range(c, cols):
                if m[i][j] and (pivot is None
                                or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        m[r], m[pi] = m[pi], m[r]
        for row in m:
            row[c], row[pj] = row[pj], row[c]
        again = True
        while again:
            again = False
            for i in range(r + 1, rows):
                if m[i][c]:
                    q = m[i][c] // m[r][c]
                    for j in range(c, cols):
                        m[i][j] -= q * m[r][j]
                    if m[i][c]:
                        m[r], m[i] = m[i], m[r]
                        again = True
            for j in range(c + 1, cols):
                if m[r][j]:
                    q = m[r][j] // m[r][c]
                    for i in range(r, rows):
                        m[i][j] -= q * m[i][c]
                    if m[r][j]:
                        for i in range(rows):
                            m[i][c], m[i][j] = m[i][j], m[i][c]
                        again = True
        rank += 1
        r += 1
        c += 1
    return rank


def rank_mod2_dense(matrix):
    """Rank over GF(2) of a dense integer matrix (entries read mod 2) by
    row reduction with column-by-column pivot search."""
    m = [[x % 2 for x in row] for row in matrix]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                m[i] = [x ^ y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def snf_reduced_betti(X: SimplicialComplex):
    """Reduced Betti numbers via dense boundary matrices and SNF ranks."""
    if X.is_void():
        return ()
    simplices = sorted(all_faces(X.facets, include_empty=True),
                       key=lambda s: (len(s), s))
    by_deg = {}
    for s in simplices:
        by_deg.setdefault(len(s) - 1, []).append(s)
    index = {q: {s: i for i, s in enumerate(v)} for q, v in by_deg.items()}
    ranks = {}
    top = max(by_deg)
    for q in range(0, top + 1):
        rows = [[0] * len(by_deg[q]) for _ in by_deg[q - 1]]
        for j, s in enumerate(by_deg[q]):
            for i in range(len(s)):
                face = s[:i] + s[i + 1:]
                rows[index[q - 1][face]][j] = -1 if i % 2 else 1
        ranks[q] = smith_rank(rows)
    return tuple(len(by_deg[q]) - ranks.get(q, 0) - ranks.get(q + 1, 0)
                 for q in range(0, top + 1))


def enumerate_complexes(n, min_vertices=0):
    """All simplicial complexes (facet antichains) using vertices from
    range(n), as tuples of facets; includes the empty complex ({()}).

    Backtracking over the nonempty subsets of range(n) ordered by
    decreasing size; a subset may be chosen as a facet only if it is
    incomparable with all chosen so far.
    """
    subsets = sorted((tuple(c) for q in range(1, n + 1)
                      for c in combinations(range(n), q)),
                     key=lambda t: (-len(t), t))
    masks = [sum(1 << v for v in s) for s in subsets]
    out = [((),)]  # the empty complex

    def rec(start, chosen_masks, chosen):
        for i in range(start, len(subsets)):
            mi = masks[i]
            if any(mi & cm == mi or mi & cm == cm for cm in chosen_masks):
                continue
            chosen.append(subsets[i])
            chosen_masks.append(mi)
            out.append(tuple(chosen))
            rec(i + 1, chosen_masks, chosen)
            chosen.pop()
            chosen_masks.pop()

    rec(0, [], [])
    if min_vertices:
        out = [fs for fs in out
               if len({v for f in fs for v in f}) >= min_vertices]
    return out


def leray_links_unpruned(X: SimplicialComplex):
    """(value, witness) of the link scan with no pruning: every simplex in
    (dimension, lex) order, brute-force links, SNF homology; the witness is
    the first strict improvement."""
    if X.is_void():
        return 0, None
    faces = sorted(all_faces(X.facets, include_empty=True),
                   key=lambda s: (len(s), s))
    face_set = set(faces)
    best, witness = -1, None
    for sigma in faces:
        ss = set(sigma)
        lk = [t for t in faces
              if not ss & set(t) and tuple(sorted(ss | set(t))) in face_set]
        betti = snf_reduced_betti(SimplicialComplex(X.vertex_count, lk))
        top = max((i for i, b in enumerate(betti) if b), default=None)
        if top is not None and top > best:
            best, witness = top, (("link", sigma), top)
    return best + 1, witness


def maximal_by_pairs(simplices) -> frozenset:
    """Inclusion-maximal elements of a collection of simplices, each
    candidate compared with every larger one kept before it."""
    by_size = sorted(set(simplices), key=lambda t: (-len(t), t))
    out = []
    out_sets = []
    for s in by_size:
        ss = set(s)
        if not any(ss <= o for o in out_sets):
            out.append(s)
            out_sets.append(ss)
    return frozenset(out)


def link_facets_by_maximal(X: SimplicialComplex, A):
    """Facets of lk(X, A) as the inclusion-maximal candidates f - A."""
    aset = set(as_simplex(A))
    return maximal_by_pairs(tuple(sorted(set(f) - aset))
                            for f in X.facets if aset <= set(f))


def _sections(X: SimplicialComplex, part_vertex_lists):
    """All ways to pick one vertex per listed part forming a simplex of X,
    in lexicographic order of the choices."""
    out = [()]
    for vertices in part_vertex_lists:
        out = [prefix + (v,) for prefix in out for v in vertices
               if X.contains(sorted(prefix + (v,)))]
    return out


def mpc_by_sections(pxs, guard=DEFAULT_MPC_SIMPLEX_GUARD) -> MultiPointComplex:
    """``generalized_mpc`` over the image simplices common to every
    factor's projection, each factor's sections found by extending choices
    one part at a time and testing each with ``contains``, and the simplex
    count checked as it grows."""
    if not pxs:
        raise ComplexError("at least one factor is required")
    parts = pxs[0].parts
    for px in pxs[1:]:
        if px.parts != parts:
            raise ComplexError("factors have mismatched part structures")
    k = len(pxs)
    _check_vertex_bound(parts, k)
    images = [project(px) for px in pxs]
    common = [s for s in images[0].all_simplices()
              if all(img.contains(s) for img in images[1:])]
    simplex_sets = set()
    for I in common:
        lists = [parts[i] for i in I]
        secs = [_sections(factor.complex, lists) for factor in pxs]
        total = 1
        for s in secs:
            total *= len(s)
        _check_simplex_count(len(simplex_sets) + total, guard)
        stack = [()]
        for sec in secs:
            stack = [prefix + (choice,) for prefix in stack for choice in sec]
        for combo in stack:
            simplex_sets.add(frozenset(
                (I[j], tuple(sec[j] for sec in combo))
                for j in range(len(I))))
    keys = sorted({v for s in simplex_sets for v in s})
    idx = {key: i for i, key in enumerate(keys)}
    # a face of a simplex over I restricts its sections to a face of I, so
    # the set is closed under nonempty faces
    facets = _closed_facets(tuple(sorted(idx[v] for v in s))
                            for s in simplex_sets)
    cx = SimplicialComplex(len(keys), facets, labels=keys)
    equal = all(px.complex == pxs[0].complex for px in pxs[1:])
    return MultiPointComplex(
        cx, k, parts,
        tuple(key[0] for key in keys), tuple(key[1] for key in keys), equal)


def fiber_bound_by_sections(px):
    """(r, witness) by enumerating the sections over every image simplex."""
    best, witness = 0, None
    for sigma in project(px).all_simplices():
        count = len(_sections(px.complex, [px.parts[i] for i in sigma]))
        if count > best:
            best, witness = count, sigma
    return best, witness


def e1_page_by_building(px, guard=DEFAULT_MPC_SIMPLEX_GUARD):
    """The E1 page with no up-front refusal and no stored page: build
    M_1..M_{r+1} in turn and let the first guard that fires refuse."""
    r, _ = fiber_bound(px)
    table = {}
    for p in range(r):
        M = multiple_point_complex(px, p + 1, guard=guard)
        for q, n in enumerate(alt_betti(M, guard=guard)):
            table[(p, q)] = n
    M_extra = multiple_point_complex(px, r + 1, guard=guard)
    extra = alt_betti(M_extra, guard=guard)
    image = unreduced_betti(project(px))
    return E1Page(r, table, image, all(n == 0 for n in extra))


def choice_boxes_by_product(fr, names):
    """Nonempty piece-choice intersections over the named groups: every
    product of one piece per group, met as rational boxes."""
    pieces_of = dict(fr.groups)
    groups = [pieces_of[g] for g in names]
    out = []
    stack = [[]]
    for pieces in groups:
        stack = [c + [p] for c in stack for p in pieces]
    for choice in stack:
        b = box_meet([fr.base.members[p] for p in choice])
        if b is not None:
            out.append((tuple(choice), b))
    return out


def make_fr_family_by_product(base, grouping, r):
    """``make_fr_family`` checking every subfamily of size >= 2 by its full
    product of piece choices, in size-then-lexicographic order."""
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
    for size in range(2, len(names) + 1):
        for sub in combinations(names, size):
            boxes = choice_boxes_by_product(fam, sub)
            if len(boxes) > r:
                raise FrValidationError(
                    "intersection over %r splits into %d > r pieces"
                    % (sub, len(boxes)), sub)
            for (_, a), (_, b) in combinations(boxes, 2):
                if not boxes_disjoint(a, b):
                    raise FrValidationError(
                        "intersection over %r has overlapping pieces"
                        % (sub,), sub)
    return fam


def atom_empty_by_sets(family, names):
    """``AtomFamily.is_empty_intersection`` as the named members' sets met
    in turn, stopping at the first empty meet."""
    out = None
    for n in names:
        out = family.members[n] if out is None else out & family.members[n]
        if not out:
            return True
    if out is None:
        raise FamilyError("intersection of an empty collection is undefined")
    return False


def nerve_by_oracle(names, is_empty):
    """The nerve from every subfamily's emptiness by ``is_empty(name
    list)``, with facets by pairwise comparison."""
    simplices = [sub for size in range(1, len(names) + 1)
                 for sub in combinations(range(len(names)), size)
                 if not is_empty([names[i] for i in sub])]
    if not simplices:
        return SimplicialComplex(0, ())
    return SimplicialComplex(len(names), maximal_by_pairs(simplices),
                             labels=names)


def minimal_empty_by_scan(names, nv):
    """The minimal non-faces of the nerve ``nv`` as name tuples, by scanning
    all ``2^n`` subfamilies by size and then lexicographically."""
    # the empty subfamily counts as intersecting even when the nerve is void
    simplex_set = set(nv.all_simplices(include_empty=True)) | {()}
    out = []
    for size in range(1, len(names) + 1):
        for cand in combinations(range(len(names)), size):
            if cand in simplex_set:
                continue
            if all(cand[:i] + cand[i + 1:] in simplex_set
                   for i in range(size)):
                out.append(tuple(names[i] for i in cand))
    return out
