"""The public API of ``leraytop``, pinned so that a removal shows in the
diff of this file."""
import types

import leraytop

PUBLIC_NAMES = [
    "AltChainComplex", "AtomFamily", "BettiVector", "Box", "BoxFamily",
    "ChainBoundary", "ComplexError", "E1Page", "FrFamily", "GuardExceeded",
    "HellyReport", "LerayCertificate", "MultiPointComplex", "OrderComplex",
    "PartitionedComplex", "SimplicialComplex", "UnionFamily", "alt_betti",
    "alt_chain_complex", "boundary_complex", "boundary_matrices",
    "check_alt_chain_iso", "check_amenta",
    "check_chordal_characterization", "check_euler", "check_hl",
    "check_intersection_bound", "check_mps_vanishing",
    "check_projection_theorem", "check_proof_vanishing", "clique_complex",
    "double_point_closure", "e1_page", "empty_complex",
    "euler_characteristic", "extremal_example", "fiber_bound",
    "generalized_mpc", "helly_number", "helly_number_direct", "induced",
    "intersection", "is_chordal", "is_isomorphism", "join",
    "leray_by_definition", "leray_by_links", "leray_number", "link",
    "make_box", "make_complex", "make_fr_family", "make_partitioned",
    "multiple_point_complex", "nerve", "pieces_projection", "project",
    "random_fr_family", "random_partitioned_complex", "reduced_betti",
    "solid_simplex", "subdivision", "sym_action", "tilde_closure", "union",
    "unreduced_betti", "void_complex",
]


def test_public_names_are_pinned():
    # submodules are left out: which ones are attributes depends on what
    # has been imported so far
    names = sorted(n for n in dir(leraytop) if not n.startswith("_")
                   and not isinstance(getattr(leraytop, n), types.ModuleType))
    assert names == PUBLIC_NAMES
