"""Combinatorial rational-homotopy pipeline.

From a cyclic polytope (or any small simplicial complex) this package derives
the Stanley-Reisner presentation of its face ring, the minimal degree of a
relation among the ideal generators, and the wedge-of-spheres model of the
associated Borel space valid below that degree; on the other side it computes
graded homology ranks of connected sums of sphere products and compares the
two through the joint validity window.
"""

from .gale import (
    Component,
    CyclicParams,
    components,
    enumerate_faces,
    f_vector,
    is_face,
    is_q_neighborly,
)
from .complexes import (
    FaceRingPresentation,
    Monomial,
    SimplicialComplex,
    face_ring,
    from_cyclic,
    from_facets,
    from_nonfaces,
    from_polygon,
    minimal_nonfaces,
    parse_complex,
)
from .syzygy import (
    RelationAmongRelations,
    lcm_support,
    min_relation_degree,
    relation_holds,
)
from .hilton import (
    SphereSpectrum,
    WedgeModel,
    borel_model,
    moebius,
    rational_rank_wedge,
    wedge_spectrum,
)
from .manifold import (
    ConnectedSumSpec,
    GradedRanks,
    SphereProduct,
    connected_sum_homology,
    euler_characteristic,
    format_connected_sum,
    hurewicz_window,
    parse_connected_sum,
    poincare_check,
    product_homology,
    rational_homotopy_rank,
)

__version__ = "0.1.0"
