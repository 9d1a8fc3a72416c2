"""Independent test oracles: Smith-normal-form homology, brute-force
simplex-set operations, exhaustive enumeration of small complexes, a few
named complexes with torsion or without hollow simplices, the unpruned
or pre-optimisation forms of the library's fast paths, and small builders
and invariants that only the tests need: simplex boundaries, joins and
unions, graph clique complexes and chordality, box meets and the
alternating homology of the orbit scan among them.

Everything here is deliberately naive.  Only ``alt_betti`` takes its ranks
with the library's ``rank_of_rows``; nothing else shares a code path with
the library's homology/rank implementation.
"""
from fractions import Fraction
from itertools import combinations

from leraytop import (Box, BoxFamily, ComplexError, SimplicialComplex,
                      UnionFamily, leray_by_links, make_complex, project)
from leraytop.core import _check_same_table, _closed_facets, as_simplex
from leraytop.helly import FamilyError, FrFamily, FrValidationError
from leraytop.homology import rank_of_rows
from leraytop.icss import E1Page, _actions, _check_orbit_work
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


def void_complex(n=0):
    """The complex with no simplex at all, on n vertices."""
    return SimplicialComplex(n, ())


def empty_complex(n=0):
    """The complex whose only simplex is the empty one, on n vertices."""
    return SimplicialComplex(n, ((),))


def solid_simplex(vertices):
    """The full simplex on the given vertex set."""
    return make_complex([as_simplex(vertices)])


def boundary_complex(A):
    """The boundary of the simplex on vertex set A (a sphere S^{|A|-2})."""
    A = as_simplex(A)
    if not A:
        raise ComplexError("boundary of the empty vertex set is undefined")
    return SimplicialComplex(1 + A[-1], combinations(A, len(A) - 1))


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


def union(X1, X2):
    """Union of two complexes on a shared vertex table."""
    _check_same_table(X1, X2)
    return SimplicialComplex(X1.vertex_count,
                             maximal_by_pairs(X1.facets | X2.facets))


def leray_number(X) -> int:
    """The Leray number by the link scan."""
    return leray_by_links(X).value


def contains(X: SimplicialComplex, simplex) -> bool:
    """Whether ``simplex`` (in any vertex order) lies in some facet of X;
    the empty simplex lies in every complex but the void one."""
    s = set(simplex)
    if not s:
        return not X.is_void()
    return any(s.issubset(f) for f in X.facets)


def f_vector(X: SimplicialComplex):
    """Face counts (f_0, f_1, ...); empty tuple for void/empty complexes."""
    counts = {}
    for s in X.all_simplices():
        counts[len(s) - 1] = counts.get(len(s) - 1, 0) + 1
    if not counts:
        return ()
    return tuple(counts.get(q, 0) for q in range(max(counts) + 1))


def relabel(X: SimplicialComplex, mapping):
    """Image under a vertex bijection given as a sequence new_id[old_id]."""
    if sorted(mapping) != list(range(X.vertex_count)):
        raise ComplexError("mapping is not a bijection of the vertex table")
    facets = [tuple(sorted(mapping[v] for v in f)) for f in X.facets]
    labels = None
    if X.labels is not None:
        labels = [None] * X.vertex_count
        for old, lab in enumerate(X.labels):
            labels[mapping[old]] = lab
    return SimplicialComplex(X.vertex_count, facets, labels=labels)


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


def all_simplices_by_one_set(X: SimplicialComplex):
    """X's simplices, empty one included, as one set of every face of every
    facet sorted by the key (dimension, lex): the reference for the
    level-wise ``SimplicialComplex.all_simplices``."""
    seen = set()
    for f in X.facets:
        for q in range(len(f) + 1):
            seen.update(combinations(f, q))
    return sorted(seen, key=lambda t: (len(t), t))


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


def hollow_simplex_by_subsets(X: SimplicialComplex):
    """True when some d+2 vertices, d = dim X >= 0, have all their subsets
    of size d+1 among the facets of X: the reference for
    ``homology._hollow_simplex``."""
    d = X.dim
    if d < 0:
        return False
    return any(all(f in X.facets for f in combinations(s, d + 1))
               for s in combinations(sorted(X.used_vertices()), d + 2))


def rp2_6():
    """The 6-vertex real projective plane: H_1 = Z/2, rationally acyclic."""
    facets = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 2),
              (2, 3, 5), (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4)]
    return make_complex([[v - 1 for v in f] for f in facets])


def rp2_suspension():
    """The suspension of ``rp2_6``: H_2 = Z/2, rationally acyclic."""
    return join(rp2_6(), boundary_complex((0, 1)))


def rp2_plus_two_points():
    """``rp2_6`` with two isolated vertices: beta_0 = 2 over every field,
    and beta_2(Q) = 0 although beta_2(F_2) = 1."""
    return make_complex(list(rp2_6().facets) + [(6,), (7,)])


def cross_polytope_boundary(k):
    """The boundary of the k-dimensional cross-polytope, a (k-1)-sphere on
    2k vertices with no hollow k-simplex for k >= 2."""
    X = boundary_complex((0, 1))
    for _ in range(k - 1):
        X = join(X, boundary_complex((0, 1)))
    return X


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


def _adjacency(edges, n):
    """Neighbour sets of a simple graph on 0..n-1; n defaults to one more
    than the largest endpoint."""
    if n is None:
        n = 1 + max((max(e) for e in edges), default=-1)
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def clique_complex(edges, n=None) -> SimplicialComplex:
    """The complex of cliques of a simple graph on 0..n-1.  Each clique is
    grown from its smallest vertex by later vertices adjacent to all of it;
    the facets are the maximal cliques."""
    adj = _adjacency(edges, n)
    cliques = [(v,) for v in adj]
    for c in cliques:  # the list grows while it is read
        cliques.extend(c + (w,) for w in range(c[-1] + 1, len(adj))
                       if all(w in adj[u] for u in c))
    return SimplicialComplex(len(adj), maximal_by_pairs(cliques))


def is_chordal(edges, n=None) -> bool:
    """Chordality by deleting simplicial vertices (those whose neighbours
    are pairwise adjacent) one at a time.  Every chordal graph has one and
    induced subgraphs of chordal graphs are chordal (Dirac 1961), and no
    chordless cycle passes through one, so the graph is chordal exactly
    when this deletes every vertex (Fulkerson-Gross 1965)."""
    adj = _adjacency(edges, n)
    while adj:
        v = next((v for v, nb in adj.items()
                  if all(b in adj[a] for a, b in combinations(nb, 2))), None)
        if v is None:
            return False
        for u in adj.pop(v):
            adj[u].discard(v)
    return True


def _sections(X: SimplicialComplex, part_vertex_lists):
    """All ways to pick one vertex per listed part forming a simplex of X,
    in lexicographic order of the choices."""
    out = [()]
    for vertices in part_vertex_lists:
        out = [prefix + (v,) for prefix in out for v in vertices
               if contains(X, prefix + (v,))]
    return out


def mpc_by_sections(pxs, guard=DEFAULT_MPC_SIMPLEX_GUARD) -> MultiPointComplex:
    """``generalized_mpc`` over the image simplices common to every
    factor's projection, each factor's sections found by extending choices
    one part at a time and testing each with ``contains``, and the simplex
    count checked as it grows.  Each factor's complex is enumerated under
    the guard first, as the guard bounds every enumeration of the call."""
    if not pxs:
        raise ComplexError("at least one factor is required")
    parts = pxs[0].parts
    for px in pxs[1:]:
        if px.parts != parts:
            raise ComplexError("factors have mismatched part structures")
    k = len(pxs)
    _check_vertex_bound(parts, k)
    for px in pxs:
        px.complex.all_simplices(guard=guard)
    images = [project(px) for px in pxs]
    common = [s for s in images[0].all_simplices()
              if all(contains(img, s) for img in images[1:])]
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


def section_table_by_sorting(px):
    """The section table with each simplex filed under its sorted tuple of
    parts: the form before part bitmasks."""
    owner = px.part_of()
    table = {}
    for s in px.complex.all_simplices():
        table.setdefault(tuple(sorted(owner[v] for v in s)), []).append(s)
    return table


def fiber_bound_by_sections(px):
    """(r, witness) by enumerating the sections over every image simplex."""
    best, witness = 0, None
    for sigma in project(px).all_simplices():
        count = len(_sections(px.complex, [px.parts[i] for i in sigma]))
        if count > best:
            best, witness = count, sigma
    return best, witness


def alt_chain_boundaries(M: MultiPointComplex,
                         guard=DEFAULT_MPC_SIMPLEX_GUARD):
    """The full orbit scan of M: (reps, matrices), the orbit-representative
    basis of the alternating chains per degree and the boundary restricted
    to it, ``matrices[q]`` as sparse rows over ``reps[q - 1]``.  Each
    scanned simplex is mapped to its orbit's representative with the sign
    of the group element that takes one to the other, or to None when its
    orbit dies; the guards are checked as ``icss.alt_chain_complex`` checks
    them."""
    actions = _actions(M)
    simplices = M.complex.all_simplices(guard=guard)
    _check_orbit_work(len(simplices), len(actions))
    by_deg = {}
    for s in simplices:
        by_deg.setdefault(len(s) - 1, []).append(s)
    reps = {}
    # simplex -> (rep, coeff) for surviving orbits, None for killed ones
    transfer = {}
    for q in sorted(by_deg):
        reps_q = []
        for s in by_deg[q]:
            if s in transfer:
                continue
            alive = True
            orbit = {}
            for gsign, act in actions:
                t, eps = act.on_simplex(s)
                if t == s and gsign * eps == -1:
                    alive = False
                if t not in orbit:
                    orbit[t] = gsign * eps
            if alive:
                reps_q.append(s)
                for t, c in orbit.items():
                    transfer[t] = (s, c)
            else:
                for t in orbit:
                    transfer[t] = None
        reps[q] = reps_q
    matrices = {}
    for q in sorted(reps):
        if q <= 0 or not reps[q]:
            continue
        row_index = {s: i for i, s in enumerate(reps[q - 1])}
        rows = [dict() for _ in reps[q - 1]]
        for j, s in enumerate(reps[q]):
            for i in range(len(s)):
                face = s[:i] + s[i + 1:]
                hit = transfer.get(face)
                if hit is None:
                    continue
                rep, c = hit
                ri = row_index[rep]
                w = rows[ri].get(j, 0) + (-1 if i % 2 else 1) * c
                if w:
                    rows[ri][j] = w
                elif j in rows[ri]:
                    del rows[ri][j]
        matrices[q] = rows
    return reps, matrices


def alt_betti(M: MultiPointComplex, guard=DEFAULT_MPC_SIMPLEX_GUARD):
    """Dimensions of the homology of the alternating chain complex of M
    (unreduced convention), from ``alt_chain_boundaries``; the empty tuple
    for a void complex.  The ranks are the library's ``rank_of_rows``, as
    in the closed form this is compared with."""
    if M.complex.is_void():
        return ()
    reps, matrices = alt_chain_boundaries(M, guard=guard)
    top = max(reps) if reps else -1
    ranks = {q: rank_of_rows(m) for q, m in matrices.items()}
    return tuple(len(reps.get(q, ())) - ranks.get(q, 0) - ranks.get(q + 1, 0)
                 for q in range(top + 1))


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
    return E1Page(r, table, all(n == 0 for n in extra))


def make_box(intervals) -> Box:
    """A box from (lo, hi) pairs of anything ``Fraction`` reads."""
    return Box(tuple((Fraction(lo), Fraction(hi)) for lo, hi in intervals))


def box_meet(boxes):
    """Intersection of boxes, axis by axis: the largest start and the
    smallest end; None if empty."""
    boxes = list(boxes)
    if not boxes:
        raise FamilyError("intersection of an empty collection is undefined")
    out = []
    for axis in range(boxes[0].dimension):
        lo = max(b.intervals[axis][0] for b in boxes)
        hi = min(b.intervals[axis][1] for b in boxes)
        if lo > hi:
            return None
        out.append((lo, hi))
    return Box(tuple(out))


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
            if box_meet([base.members[a], base.members[b]]) is not None:
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
                if box_meet([a, b]) is not None:
                    raise FrValidationError(
                        "intersection over %r has overlapping pieces"
                        % (sub,), sub)
    return fam


def interval_family(intervals) -> BoxFamily:
    """A 1-dimensional box family from (name, lo, hi) triples."""
    return BoxFamily(1, {name: make_box([(lo, hi)])
                         for name, lo, hi in intervals})


def atom_family(members) -> UnionFamily:
    """Named finite sets of atoms as a 1-dimensional union family: the
    i-th smallest atom is the point box [i, i], and an empty set is a
    member with no boxes."""
    atoms = sorted(set().union(*members.values()))
    point = {a: make_box([(i, i)]) for i, a in enumerate(atoms)}
    return UnionFamily(1, {name: tuple(point[a] for a in sorted(atoms_of))
                           for name, atoms_of in members.items()})


def atom_empty_by_sets(family, names):
    """Emptiness of named ``atom_family`` members as their sets of points
    met in turn, stopping at the first empty meet."""
    out = None
    for n in names:
        points = {box.intervals[0][0] for box in family.members[n]}
        out = points if out is None else out & points
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


def minimal_empty_by_slicing(family):
    """The minimal non-faces of a walked family's nerve as name tuples, by
    size and then lexicographically: each face s of the walk's table (the
    empty one included) extended by each larger index j, kept when s + j is
    no face and each s + j less one s_i is, by tuple slicing."""
    names = family.names
    # the empty subfamily counts as intersecting even when the nerve is void
    faces = {(), *family._nonempty()}
    out = []
    for s in faces:
        for j in range(s[-1] + 1 if s else 0, len(names)):
            cand = s + (j,)
            if cand not in faces and all(cand[:i] + cand[i + 1:] in faces
                                         for i in range(len(s))):
                out.append(cand)
    out.sort(key=lambda c: (len(c), c))
    return [tuple(names[i] for i in c) for c in out]
