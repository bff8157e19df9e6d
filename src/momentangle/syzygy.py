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

from __future__ import annotations

from itertools import combinations

from .complexes import FaceRingPresentation

__all__ = ["min_relation_degree"]


def min_relation_degree(F: FaceRingPresentation) -> tuple[int, tuple[int, int]]:
    """Smallest degree of a relation among relations, and the index pair
    (i, j), i < j, of the generators that reach it.

    Scans unordered generator pairs on their vertex bitmasks; the degree
    contributed by a pair is 2 * popcount(a | b) (the lcm degree).  Ties go
    to the lexicographically first index pair.  Two incomparable generators
    have a union of at least s + 1 vertices, s the smallest generator size,
    so the scan stops at the first pair of degree 2 * (s + 1): no later pair
    can be smaller, and ties go to the earlier pair anyway.
    """
    masks = F.masks
    if len(masks) < 2:
        raise ValueError(
            "no relations: the ideal needs at least two generators"
        )
    bound = 2 * (min(map(int.bit_count, masks)) + 1)
    best: tuple[int, int, int] | None = None
    for i, j in combinations(range(len(masks)), 2):
        deg = 2 * (masks[i] | masks[j]).bit_count()
        if best is None or deg < best[0]:
            best = (deg, i, j)
            if deg == bound:
                break
    deg, i, j = best
    return deg, (i, j)
