"""Relations among relations for squarefree monomial ideals.

A relation among relations is a binomial identity
``x_i * prod(v_k for k in I1) - x_j * prod(v_k for k in I2) = 0`` obtained by
multiplying two ideal generators up to a common monomial.  Both sides must be
the *same* monomial, so each side is a common multiple of the two generators;
the cheapest common multiple is the lcm, which for squarefree monomials is
just the support union.  The minimal degree over all generator pairs bounds
how far the wedge model of the Borel space stays valid; it is also twice the
lowest j with a nonzero Betti number beta_(2,j) (`hochster.betti_table`).
The multipliers of the pair (i, j) are the lcm quotients: the vertices of g_j
missing from g_i, and the other way round.
"""

from _operator import ge
from itertools import combinations, compress, repeat

from .complexes import FaceRingPresentation

__all__ = ["min_relation_degree"]


def min_relation_degree(F: FaceRingPresentation) -> tuple[int, tuple[int, int]]:
    """Smallest degree of a relation among relations, and the index pair
    (i, j), i < j, of the generators that reach it.

    Scans unordered generator pairs on their vertex bitmasks; the degree
    contributed by a pair is 2 * popcount(a | b) (the lcm degree).  Ties go
    to the lexicographically first index pair.  Two incomparable generators
    of sizes a <= b have a union of at least b + 1 vertices.  So with t the
    smallest generator size, or the next size if only one generator has the
    smallest, every pair has a union of at least t + 1, and only a pair of
    two generators of size at most t can have exactly t + 1.  Those pairs
    are scanned first, in index order, and the first of them of degree
    2 * (t + 1) is the answer: no pair is smaller, and every earlier pair
    is larger.  Only if none reaches that bound are all pairs scanned, so
    the worst case stays quadratic in the generator count.
    """
    masks = F.masks
    if len(masks) < 2:
        raise ValueError(
            "no relations: the ideal needs at least two generators"
        )
    (degree, count), *larger = F.histogram
    t = (degree if count > 1 else larger[0][0]) // 2
    small = compress(range(len(masks)), map(ge, repeat(t), map(int.bit_count, masks)))
    for i, j in combinations(list(small), 2):
        if (masks[i] | masks[j]).bit_count() == t + 1:
            return 2 * (t + 1), (i, j)
    deg, i, j = min(
        (2 * (masks[i] | masks[j]).bit_count(), i, j)
        for i, j in combinations(range(len(masks)), 2)
    )
    return deg, (i, j)
