"""Combinatorial homotopy pipeline for moment-angle complexes.

A simplicial complex is carried by one type, the Stanley-Reisner
presentation of its face ring (one ideal generator per minimal non-face,
each the strictly increasing tuple of its vertices).  From a cyclic polytope,
a polygon or a complex file this package derives that presentation, the
minimal degree of a relation among the ideal generators with the generator
pair that reaches it, and the homology of the moment-angle complex Z_K by
Hochster's formula over GF(2), GF(10007) and GF(3) (`hochster`).  On the
other side it computes graded homology ranks of connected sums of sphere
products, which are torsion-free; the CLI compares the two degree by degree
and field by field, and a difference over any one field rules out a
homotopy equivalence.  `wedge_spectrum` gives the sphere spectrum of a
wedge of odd spheres from its histogram of sphere dimensions; the CLI reads
it for the wedge model of the associated Borel space, one sphere
S^(2|g| - 1) per ideal generator g, so the face ring's generator histogram
with each degree less one, truncated at rmin - 2.
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
from .hochster import (
    FIELDS,
    betti_table,
    bottom_ranks,
    cyclic_ranks,
    field_ranks,
    zk_ranks,
)
from .hilton import (
    SphereSpectrum,
    wedge_spectrum,
)
from .manifold import (
    ConnectedSumSpec,
    GradedRanks,
    SphereProduct,
    connected_sum_homology,
    euler_characteristic,
    format_connected_sum,
    parse_connected_sum,
    poincare_check,
)

__version__ = "0.1.0"
