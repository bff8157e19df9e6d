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
missing from g_i, and the other way round.  The minimum is found by one loop
that raises a lower bound on the pair union until some pair meets it, reading
at most `gale.SUBSET_LIMIT` pairs at each bound.
"""

from _operator import gt
from itertools import combinations, compress, count, islice, repeat

from . import gale
from .complexes import FaceRingPresentation

__all__ = ["min_relation_degree"]


def min_relation_degree(F: FaceRingPresentation) -> tuple[int, tuple[int, int]]:
    """Smallest degree of a relation among relations, and the index pair
    (i, j), i < j, of the generators that reach it.

    A pair's degree is 2 * popcount(a | b) on the vertex bitmasks (the lcm
    degree); ties go to the lexicographically first index pair.  Two
    incomparable generators have a union larger than either one, so with s
    the smallest generator size no union has fewer than s + 1 vertices.
    The bound `union` counts up from s + 1 while no pair meets it; only two
    generators of fewer than `union` vertices can have exactly `union`, so
    their pairs are scanned in index order and the first that has it is
    the answer.  Each bound that no pair meets rescans those pairs, so a
    minimum r sizes above s + 1 costs up to r + 1 scans: the 961 lines
    y = ax + b (mod 31) on the columns x = 0..4 of a 5 x 31 grid, 5-sets
    that pairwise share at most one vertex, scan all 461,280 pairs at each
    of the bounds 6, 7 and 8 before the first pair meets 9 (91 ms
    in-process, Python 3.11.7, 2-core host).  A bound reads at most
    `gale.SUBSET_LIMIT` pairs, and one that leaves pairs unread, none read
    meeting it, is refused by the count of its pairs: the 3,721 lines
    mod 61 at the bound 6.  The pairs are never counted first, so a ring
    whose bound is met early is not refused for the pairs it would not read.
    """
    masks = F.masks
    if len(masks) < 2:
        raise ValueError(
            "no relations: the ideal needs at least two generators"
        )
    for union in count(F.histogram[0][0] // 2 + 1):
        sizes = map(int.bit_count, masks)
        small = list(compress(range(len(masks)), map(gt, repeat(union), sizes)))
        pairs = combinations(small, 2)
        for i, j in islice(pairs, gale.SUBSET_LIMIT):
            if (masks[i] | masks[j]).bit_count() == union:
                return 2 * union, (i, j)
        if next(pairs, None):
            k = len(small)
            what = f"the relation scan at {union} vertices"
            gale.check_subset_count(k * (k - 1) // 2, what, "pairs")
