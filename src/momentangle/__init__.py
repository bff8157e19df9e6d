"""Combinatorial rational-homotopy pipeline.

A simplicial complex is carried by one type, the Stanley-Reisner
presentation of its face ring (one ideal generator per minimal non-face,
each the strictly increasing tuple of its vertices).  From a cyclic polytope,
a polygon or a complex file this package derives that presentation, the
minimal degree of a relation among the ideal generators with the generator
pair that reaches it, and the wedge-of-spheres model of the associated Borel space, a sphere
spectrum truncated at the model's window (`borel_model`).  On the other side
it computes graded homology ranks of connected sums of sphere products, which
are rational homotopy ranks up to `hurewicz_window`; the CLI compares the two
degree by degree where both windows hold.
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
    from_cyclic,
    from_facets,
    from_nonfaces,
    parse_complex,
)
from .syzygy import min_relation_degree
from .hilton import (
    SphereSpectrum,
    borel_model,
    moebius,
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
)

__version__ = "0.1.0"
