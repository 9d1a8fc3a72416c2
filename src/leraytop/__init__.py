"""leraytop: exact-arithmetic simplicial topology at desk scale.

Simplicial complexes, rational homology, Leray numbers, partitioned
complexes and their projections, multiple-point complexes with their
symmetric-group action, and Helly-number verification for box families.
"""

from .core import (ComplexError, GuardExceeded, SimplicialComplex, induced,
                   intersection, link, make_complex, subdivision)
from .homology import (BettiVector, euler_characteristic, reduced_betti,
                       unreduced_betti)
from .leray import LerayCertificate, leray_by_definition, leray_by_links
from .multiproj import (MultiPointComplex, PartitionedComplex,
                        check_intersection_bound, check_mps_vanishing,
                        check_projection_theorem, extremal_example,
                        fiber_bound, generalized_mpc, make_partitioned,
                        multiple_point_complex, project,
                        random_partitioned_complex)
from .icss import (AltChainComplex, E1Page, alt_chain_complex,
                   check_alt_chain_iso, check_euler, check_proof_vanishing,
                   double_point_closure, e1_page, sym_action)
from .helly import (Box, BoxFamily, FrFamily, HellyReport, UnionFamily,
                    check_amenta, check_hl, helly_number, helly_number_direct,
                    make_fr_family, nerve, pieces_projection,
                    random_fr_family)

__version__ = "0.1.0"
