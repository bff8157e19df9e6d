"""Combinatorial rational-homotopy pipeline.

A simplicial complex is carried by one type, the Stanley-Reisner
presentation of its face ring (one ideal generator per minimal non-face).
From a cyclic polytope, a polygon or a complex file this package derives that
presentation, the minimal degree of a relation among the ideal generators,
and the wedge-of-spheres model of the associated Borel space valid below
that degree; on the other side it computes graded homology ranks of
connected sums of sphere products and compares the two through the joint
validity window.
"""

from .gale import (
    CyclicParams,
    enumerate_faces,
    f_vector,
    is_face,
    is_q_neighborly,
)
from .complexes import (
    FaceRingPresentation,
    Monomial,
    from_cyclic,
    from_facets,
    from_nonfaces,
    from_polygon,
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
    rational_homotopy_rank,
)

__version__ = "0.1.0"
